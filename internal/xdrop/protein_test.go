package xdrop

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestBlosum62Properties(t *testing.T) {
	m := Blosum62(-6)
	// Symmetry: a substitution matrix must be symmetric.
	ab := m.Alphabet()
	for i := 0; i < len(ab); i++ {
		for j := 0; j < len(ab); j++ {
			if m.Score(ab[i], ab[j]) != m.Score(ab[j], ab[i]) {
				t.Fatalf("asymmetry at %c/%c", ab[i], ab[j])
			}
		}
	}
	// Known values.
	known := map[[2]byte]int32{
		{'W', 'W'}: 11, {'C', 'C'}: 9, {'A', 'A'}: 4, {'P', 'P'}: 7,
		{'A', 'R'}: -1, {'W', 'C'}: -2, {'I', 'L'}: 2, {'D', 'E'}: 2,
	}
	for k, want := range known {
		if got := m.Score(k[0], k[1]); got != want {
			t.Errorf("BLOSUM62[%c][%c] = %d, want %d", k[0], k[1], got, want)
		}
	}
	// Diagonal dominates its row (self-substitution is always best for
	// the standard residues).
	for i := 0; i < 20; i++ {
		diag := m.Score(ab[i], ab[i])
		for j := 0; j < 20; j++ {
			if j != i && m.Score(ab[i], ab[j]) >= diag {
				t.Errorf("BLOSUM62 %c row: off-diagonal %c >= diagonal", ab[i], ab[j])
			}
		}
	}
	// Lower-case residues map to the same index.
	if m.Score('a', 'A') != m.Score('A', 'A') {
		t.Error("lower-case residue not folded")
	}
}

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix("m", "", nil, -1); err == nil {
		t.Error("accepted empty alphabet")
	}
	if _, err := NewMatrix("m", "AB", [][]int8{{1, 0}}, -1); err == nil {
		t.Error("accepted wrong row count")
	}
	if _, err := NewMatrix("m", "AB", [][]int8{{1}, {0, 1}}, -1); err == nil {
		t.Error("accepted ragged rows")
	}
	if _, err := NewMatrix("m", "AB", [][]int8{{1, 0}, {0, 1}}, 1); err == nil {
		t.Error("accepted non-negative gap")
	}
}

// TestNewMatrixRejectsRepeatedSymbol: a repeated alphabet symbol used to
// silently re-point the byte at the later row; it is a construction error,
// also when the repeat is the lower-case alias of an upper-case symbol.
func TestNewMatrixRejectsRepeatedSymbol(t *testing.T) {
	rows := [][]int8{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for _, alphabet := range []string{"ABA", "AAB", "ABa"} {
		if _, err := NewMatrix("m", alphabet, rows, -1); err == nil {
			t.Errorf("accepted alphabet %q", alphabet)
		}
	}
	if _, err := NewMatrix("m", "AB*", rows, -1); err != nil {
		t.Errorf("rejected distinct alphabet: %v", err)
	}
}

// TestMatrixUnknownResidueScoresMinimum: bytes outside the alphabet score
// as the matrix minimum — the documented contract of Score and of the
// unvalidated batch path — for any matrix, not only BLOSUM62 (whose
// minimum happens to be the -4 the code used to hard-code).
func TestMatrixUnknownResidueScoresMinimum(t *testing.T) {
	m, err := NewMatrix("m", "AB", [][]int8{{5, -9}, {-2, 3}}, -20)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]byte{{'A', '?'}, {'?', 'B'}, {'?', '?'}, {'A', 0xff}} {
		if got := m.Score(pair[0], pair[1]); got != -9 {
			t.Errorf("Score(%q,%q) = %d, want the matrix minimum -9", pair[0], pair[1], got)
		}
	}
	if got := Blosum62(-6).Score('A', '?'); got != -4 {
		t.Errorf("BLOSUM62 unknown residue scores %d, want -4", got)
	}
	// The row kernel uses the same lookup: one unknown residue in an
	// otherwise identical pair costs the minimum, on the unvalidated path.
	q, tt := []byte("AAAAAAAA"), []byte("AAA?AAAA")
	r, err := NewWorkspace().ExtendSeedScheme(q, tt, 0, 0, 1, MatrixScheme(m), 100)
	if err != nil {
		t.Fatal(err)
	}
	if want := int32(7*5 - 9); r.Score != want {
		t.Errorf("seed extension across an unknown residue scores %d, want %d", r.Score, want)
	}
}

func TestExtendMatrixIdenticalProtein(t *testing.T) {
	m := Blosum62(-6)
	p := []byte("MKVLAAGICWQRSTNDEHYF")
	r, err := ExtendMatrix(p, p, m, 100)
	if err != nil {
		t.Fatal(err)
	}
	var want int32
	for _, c := range p {
		want += m.Score(c, c)
	}
	if r.Score != want {
		t.Fatalf("identical protein score %d, want %d (sum of diagonal)", r.Score, want)
	}
	if r.QueryEnd != len(p) || r.TargetEnd != len(p) {
		t.Fatalf("ends (%d,%d)", r.QueryEnd, r.TargetEnd)
	}
}

func TestExtendMatrixValidation(t *testing.T) {
	m := Blosum62(-6)
	if _, err := ExtendMatrix([]byte("MKV1"), []byte("MKV"), m, 10); err == nil {
		t.Error("accepted invalid residue")
	}
	if _, err := ExtendMatrix([]byte("MKV"), []byte("MO"), m, 10); err == nil {
		t.Error("accepted residue O outside alphabet")
	}
	// qPos+seedLen overflows int; the bounds check must not wrap.
	if _, err := ExtendSeedMatrix([]byte("MKVL"), []byte("MKVL"), math.MaxInt-1, 0, 3, m, 10); err == nil {
		t.Error("accepted overflowing seed position")
	}
}

// exhaustiveMatrix is the unpruned oracle for matrix scoring.
func exhaustiveMatrix(q, t []byte, m *Matrix) int32 {
	ml, n := len(q), len(t)
	prev := make([]int32, n+1)
	cur := make([]int32, n+1)
	var best int32
	for j := 0; j <= n; j++ {
		prev[j] = int32(j) * m.Gap
	}
	for i := 1; i <= ml; i++ {
		cur[0] = int32(i) * m.Gap
		for j := 1; j <= n; j++ {
			s := prev[j-1] + m.Score(q[i-1], t[j-1])
			if v := prev[j] + m.Gap; v > s {
				s = v
			}
			if v := cur[j-1] + m.Gap; v > s {
				s = v
			}
			cur[j] = s
			if s > best {
				best = s
			}
		}
		prev, cur = cur, prev
	}
	return best
}

func randProtein(rng *rand.Rand, n int) []byte {
	const residues = "ARNDCQEGHILKMFPSTWYV"
	out := make([]byte, n)
	for i := range out {
		out[i] = residues[rng.Intn(len(residues))]
	}
	return out
}

func TestExtendMatrixMatchesExhaustive(t *testing.T) {
	m := Blosum62(-6)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		q := randProtein(rng, 1+rng.Intn(40))
		tt := randProtein(rng, 1+rng.Intn(40))
		got, err := ExtendMatrix(q, tt, m, 1<<28)
		if err != nil {
			t.Fatal(err)
		}
		want := exhaustiveMatrix(q, tt, m)
		if got.Score != want {
			t.Fatalf("trial %d: xdrop(inf)=%d exhaustive=%d\nq=%s\nt=%s", trial, got.Score, want, q, tt)
		}
	}
}

func TestExtendMatrixMonotoneInX(t *testing.T) {
	m := Blosum62(-6)
	rng := rand.New(rand.NewSource(2))
	q := randProtein(rng, 200)
	// Homolog: ~30% substitutions.
	h := append([]byte(nil), q...)
	for i := range h {
		if rng.Float64() < 0.3 {
			h[i] = randProtein(rng, 1)[0]
		}
	}
	prev := int32(-1 << 30)
	for _, x := range []int32{0, 10, 50, 200, 1 << 20} {
		r, err := ExtendMatrix(q, h, m, x)
		if err != nil {
			t.Fatal(err)
		}
		if r.Score < prev {
			t.Fatalf("score decreased at x=%d: %d < %d", x, r.Score, prev)
		}
		prev = r.Score
	}
}

func TestExtendSeedMatrixProtein(t *testing.T) {
	m := Blosum62(-6)
	rng := rand.New(rand.NewSource(3))
	q := randProtein(rng, 300)
	h := append([]byte(nil), q...)
	for i := range h {
		if rng.Float64() < 0.25 {
			h[i] = randProtein(rng, 1)[0]
		}
	}
	// Conserved seed region.
	copy(h[150:160], q[150:160])
	r, err := ExtendSeedMatrix(q, h, 150, 150, 10, m, 60)
	if err != nil {
		t.Fatal(err)
	}
	var seedScore int32
	for k := 0; k < 10; k++ {
		seedScore += m.Score(q[150+k], h[150+k])
	}
	if r.Score != r.Left.Score+r.Right.Score+seedScore {
		t.Fatalf("combined %d != parts %d+%d+%d", r.Score, r.Left.Score, r.Right.Score, seedScore)
	}
	if r.QBegin > 150 || r.QEnd < 160 {
		t.Fatalf("alignment does not span the seed: [%d,%d)", r.QBegin, r.QEnd)
	}
	// Unrelated proteins with a planted seed should extend almost
	// nowhere past it at small X.
	u := randProtein(rng, 300)
	copy(u[150:160], q[150:160])
	ru, err := ExtendSeedMatrix(q, u, 150, 150, 10, m, 15)
	if err != nil {
		t.Fatal(err)
	}
	if ru.Score >= r.Score {
		t.Fatalf("unrelated score %d >= homolog score %d", ru.Score, r.Score)
	}
	if _, err := ExtendSeedMatrix(q, h, 295, 150, 10, m, 15); err == nil {
		t.Error("accepted out-of-range protein seed")
	}
}

func TestFormatMatrix(t *testing.T) {
	out := FormatMatrix(Blosum62(-6))
	if !strings.Contains(out, "11") {
		t.Error("formatted matrix missing W-W=11")
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 25 {
		t.Error("formatted matrix row count")
	}
}
