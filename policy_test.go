package logan

import (
	"errors"
	"testing"
	"time"

	"logan/internal/seq"
)

// blankPairs backs the waiters of the policy tests: the scheduler reads
// only len(w.in), so every waiter is a subslice of one shared blank array.
var blankPairs = make([]seq.Pair, 4096)

func blankWaiter(n int) *coalesceWaiter { return &coalesceWaiter{in: blankPairs[:n]} }

// TestAdmissionAdaptive is the decision table of admit, the one admission
// policy: the one-batch floor, the uncalibrated fallback, the delay shed
// at exactly (queued+n)/(rate·w/W) > target, the deadline shed under the
// target, and the weight shares.
func TestAdmissionAdaptive(t *testing.T) {
	// 1000 pairs/s against a 100ms target: a whole-rate share drains
	// exactly 100 pairs within the target.
	base := admission{
		weight: 1, activeWeight: 1, floor: 10,
		rate: 1000, target: 100 * time.Millisecond, timeLeft: noDeadline,
	}
	with := func(f func(*admission)) admission { a := base; f(&a); return a }
	ms := time.Millisecond
	for _, tc := range []struct {
		name   string
		in     admission
		ok     bool
		reason shedReason
	}{
		{"floor admits whatever the projection", with(func(a *admission) { a.queued, a.n, a.target = 6, 4, 1 }), true, 0},
		{"floor admits past an expired deadline", with(func(a *admission) { a.n, a.timeLeft = 10, -time.Second }), true, 0},
		{"one past the floor meets the policy", with(func(a *admission) { a.queued, a.n, a.target = 7, 4, 1 }), false, shedDelay},
		{"uncalibrated admits", with(func(a *admission) { a.queued, a.n, a.rate, a.target = 1<<20, 1, 0, 1 }), true, 0},
		{"projection at the target admits", with(func(a *admission) { a.queued, a.n = 84, 16 }), true, 0},
		{"projection past the target sheds", with(func(a *admission) { a.queued, a.n = 85, 16 }), false, shedDelay},
		{"deadline beyond the projection admits", with(func(a *admission) { a.queued, a.n, a.timeLeft = 40, 10, 51*ms }), true, 0},
		{"deadline inside the projection sheds under the target", with(func(a *admission) { a.queued, a.n, a.timeLeft = 40, 10, 49*ms }), false, shedDeadline},
		{"past the target the reason is delay, deadline or not", with(func(a *admission) { a.queued, a.n, a.timeLeft = 100, 1, ms }), false, shedDelay},
		{"1:1 share admits half", with(func(a *admission) { a.queued, a.n, a.activeWeight = 40, 10, 2 }), true, 0},
		{"1:1 share sheds past half", with(func(a *admission) { a.queued, a.n, a.activeWeight = 41, 10, 2 }), false, shedDelay},
		{"1:3 light share admits a quarter", with(func(a *admission) { a.queued, a.n, a.activeWeight = 15, 10, 4 }), true, 0},
		{"1:3 light share sheds past a quarter", with(func(a *admission) { a.queued, a.n, a.activeWeight = 16, 10, 4 }), false, shedDelay},
		{"1:3 heavy share admits three quarters", with(func(a *admission) { a.queued, a.n, a.weight, a.activeWeight = 65, 10, 3, 4 }), true, 0},
		{"1:3 heavy share sheds past three quarters", with(func(a *admission) { a.queued, a.n, a.weight, a.activeWeight = 66, 10, 3, 4 }), false, shedDelay},
		{"a lone tenant's weight cancels", with(func(a *admission) { a.queued, a.n, a.weight, a.activeWeight = 90, 10, 5, 5 }), true, 0},
	} {
		ok, reason := admit(tc.in)
		if ok != tc.ok || (!ok && reason != tc.reason) {
			t.Errorf("%s: admit(%+v) = %v, reason %d; want %v, reason %d", tc.name, tc.in, ok, reason, tc.ok, tc.reason)
		}
	}
	// ErrDeadlineInfeasible must still satisfy the ErrOverloaded checks
	// HTTP front ends map to 429.
	if !errors.Is(ErrDeadlineInfeasible, ErrOverloaded) {
		t.Fatal("ErrDeadlineInfeasible does not wrap ErrOverloaded")
	}
}

// laneKeys makes one lane key per tenant name, all of one class and
// configuration.
func laneKeys(class priorityClass, names ...string) []laneKey {
	keys := make([]laneKey, len(names))
	for i, name := range names {
		keys[i] = laneKey{ten: NewTenant(TenantOptions{Name: name}), class: class, cfg: cfgT.key()}
	}
	return keys
}

// TestLaneSchedEqualService: saturated same-size lanes stay within one
// batch of equal service, whatever the request size does to the batches.
func TestLaneSchedEqualService(t *testing.T) {
	const quantum = 8
	for _, size := range []int{1, 3, 5, 7} {
		s := newLaneSched()
		keys := laneKeys(classInteractive, "a", "b", "c", "d", "e")
		served := make(map[*Tenant]int)
		for step := 0; step < 400; step++ {
			for _, k := range keys { // keep every lane two batches deep
				for s.tenPending[k.ten] < 4*quantum {
					s.enqueue(k, blankWaiter(size))
				}
			}
			l, _, n := s.take(quantum)
			served[l.key.ten] += n
			lo, hi := served[keys[0].ten], served[keys[0].ten]
			for _, k := range keys {
				lo, hi = min(lo, served[k.ten]), max(hi, served[k.ten])
			}
			if hi-lo >= 2*quantum {
				t.Fatalf("size %d step %d: lanes %d..%d pairs apart, want under two quanta (one batch)", size, step, lo, hi)
			}
		}
	}
}

// TestLaneSchedWeightedService: saturated lanes are served in proportion
// to their tenants' weights — a rotation visits a lane weight times — to
// within one batch per unit of weight.
func TestLaneSchedWeightedService(t *testing.T) {
	const quantum = 8
	for _, size := range []int{2, 7} {
		s := newLaneSched()
		var keys []laneKey
		for _, w := range []int{1, 2, 4} {
			keys = append(keys, laneKey{ten: NewTenant(TenantOptions{Weight: w}), cfg: cfgT.key()})
		}
		served := make(map[*Tenant]int)
		for step := 0; step < 700; step++ {
			for _, k := range keys {
				for s.tenPending[k.ten] < 4*quantum {
					s.enqueue(k, blankWaiter(size))
				}
			}
			l, _, n := s.take(quantum)
			served[l.key.ten] += n
		}
		for _, k := range keys[1:] {
			per, base := served[k.ten]/k.ten.weight, served[keys[0].ten]
			if per-base >= 2*quantum || base-per >= 2*quantum {
				t.Errorf("size %d: weight %d served %d pairs (%d per unit), weight 1 served %d", size, k.ten.weight, served[k.ten], per, base)
			}
		}
	}
}

// TestLaneSchedOvershootSitsOut: batches take whole requests, so a lane of
// 7-pair requests overshoots an 8-pair quantum (14 pairs) and must sit out
// the next rotation while its neighbour of exact batches is served twice.
func TestLaneSchedOvershootSitsOut(t *testing.T) {
	s := newLaneSched()
	keys := laneKeys(classInteractive, "over", "exact")
	for i := 0; i < 8; i++ {
		s.enqueue(keys[0], blankWaiter(7))
		s.enqueue(keys[1], blankWaiter(4))
	}
	var got []string
	for i := 0; i < 7; i++ {
		l, _, _ := s.take(8)
		got = append(got, l.key.ten.name)
	}
	want := []string{"over", "exact", "exact", "over", "exact", "exact", "over"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("service order %v, want %v", got, want)
		}
	}
}

// TestLaneSchedBulkPassOver: with both classes saturated the bulk ring is
// served after exactly maxBulkPassOver interactive batches, every time,
// and at once when no interactive work is queued.
func TestLaneSchedBulkPassOver(t *testing.T) {
	s := newLaneSched()
	inter := laneKeys(classInteractive, "i")[0]
	bulk := laneKeys(classBulk, "b")[0]
	for i := 0; i < 40; i++ {
		s.enqueue(inter, blankWaiter(4))
	}
	for i := 0; i < 4; i++ {
		s.enqueue(bulk, blankWaiter(4))
	}
	for round := 0; round < 4; round++ {
		for i := 0; i <= maxBulkPassOver; i++ {
			l, _, _ := s.take(4)
			if want := i == maxBulkPassOver; (l.key.class == classBulk) != want {
				t.Fatalf("round %d batch %d: class %v", round, i, l.key.class)
			}
		}
	}
	// Bulk is drained; what is left is interactive and then nothing.
	for s.pending > 0 {
		if l, _, _ := s.take(4); l.key.class != classInteractive {
			t.Fatal("bulk batch from an empty bulk ring")
		}
	}
	if l, ws, n := s.take(4); l != nil || ws != nil || n != 0 {
		t.Fatal("take on an empty scheduler")
	}
}

// TestLaneSchedDropKeepsCursor: dropping an emptied lane leaves the DRR
// cursor on the lane it pointed at — or, when that lane is the one
// dropped, on its successor (wrapping at the end of the ring).
func TestLaneSchedDropKeepsCursor(t *testing.T) {
	for _, tc := range []struct {
		name         string
		cursor, drop int
		want         string
	}{
		{"before the cursor", 2, 0, "c"},
		{"at the cursor", 2, 2, "d"},
		{"after the cursor", 2, 3, "c"},
		{"last lane at the cursor", 3, 3, "a"},
	} {
		s := newLaneSched()
		keys := laneKeys(classInteractive, "a", "b", "c", "d")
		ws := make([]*coalesceWaiter, len(keys))
		for i, k := range keys {
			ws[i] = blankWaiter(4)
			s.enqueue(k, ws[i])
		}
		s.cursor[classInteractive] = tc.cursor
		if !s.abandon(keys[tc.drop], ws[tc.drop]) {
			t.Fatalf("%s: abandon found nothing", tc.name)
		}
		if got := s.rings[classInteractive][s.cursor[classInteractive]].key.ten.name; got != tc.want {
			t.Errorf("%s: cursor on lane %q, want %q", tc.name, got, tc.want)
		}
		if s.abandon(keys[tc.drop], ws[tc.drop]) {
			t.Errorf("%s: abandoned the same waiter twice", tc.name)
		}
	}
}
