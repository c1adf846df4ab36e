// Command doclint runs the repository's structural gates: one table of
// rules (rules.go), each row naming the invariant it guards and checking
// it over its own files. Go files are read with go/parser, so a rule sees
// code with its comments removed, and _test.go files only where its row
// includes them; other files are read as text. No rule scans
// scripts/doclint, so the table can spell out the names it forbids.
//
// "doclint [root]" lists each failing rule with its sites and exits 1; it
// refuses a root whose go.mod does not declare module logan.
// "logan-serve -h 2>&1 | doclint serving" prints the generated blocks of
// docs/SERVING.md (serving.go).
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"regexp"
	"slices"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serving" {
		os.Exit(serving())
	}
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	failing, err := lint(os.DirFS(root))
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", root, err)
		os.Exit(2)
	}
	for _, r := range rules {
		if sites := failing[r.name]; sites != nil {
			fmt.Printf("%s: %s\n\t%s\n", r.name, r.why, strings.Join(sites, "\n\t"))
		}
	}
	if len(failing) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d rules fail\n", len(failing))
		os.Exit(1)
	}
}

// lint runs the table over the repository in fsys and returns the sites
// that break each failing rule.
func lint(fsys fs.FS) (map[string][]string, error) {
	t, err := load(fsys)
	if err != nil {
		return nil, err
	}
	failing := map[string][]string{}
	for _, r := range rules {
		for _, c := range r.checks {
			if sites := c(t); len(sites) > 0 {
				failing[r.name] = append(failing[r.name], sites...)
			}
		}
	}
	return failing, nil
}

// self is the table's own source, which no pattern rule scans.
const self = "scripts/doclint/"

// loaded are the extensions of the files the rules read.
var loaded = []string{".go", ".s", ".h", ".md", ".sh", ".txt", ".yml", ".csv"}

// tree is the repository as the rules read it, every file loaded once.
type tree struct {
	fset  *token.FileSet
	paths []string // in lexical order
	files map[string]*file
}

// file is one loaded file: Go with its comments blanked (lines keep their
// numbers), its syntax tree and the function around each line (Name or
// Recv.Name), anything else as it is.
type file struct {
	text      string
	lines, fn []string
	ast       *ast.File
}

// load reads every file of fsys the rules read, refusing a tree that is
// not module logan: every rule reads the tree recursively.
func load(fsys fs.FS) (*tree, error) {
	if mod, _ := fs.ReadFile(fsys, "go.mod"); !regexp.MustCompile(`(?m)^module logan$`).Match(mod) {
		return nil, errors.New("not the root of module logan (no go.mod declaring it)")
	}
	t := &tree{fset: token.NewFileSet(), files: map[string]*file{}}
	return t, fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && d.Name() == ".git" {
				return fs.SkipDir
			}
			return err
		}
		if !slices.Contains(loaded, path.Ext(p)) {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f := &file{text: string(src)}
		if path.Ext(p) == ".go" {
			if f.ast, err = parser.ParseFile(t.fset, p, src, parser.ParseComments|parser.SkipObjectResolution); err != nil {
				return err
			}
			tf := t.fset.File(f.ast.Pos())
			for _, c := range f.ast.Comments {
				for i := tf.Offset(c.Pos()); i < tf.Offset(c.End()); i++ {
					if src[i] != '\n' {
						src[i] = ' '
					}
				}
			}
			f.text = string(src)
			f.fn = make([]string, strings.Count(f.text, "\n")+1)
			for _, d := range f.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					for i := tf.Line(fd.Pos()) - 1; i < tf.Line(fd.End()); i++ {
						f.fn[i] = funcName(fd)
					}
				}
			}
		}
		f.lines = strings.Split(f.text, "\n")
		t.paths = append(t.paths, p)
		t.files[p] = f
		return nil
	})
}

// funcName is Name for a function and Recv.Name for a method.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	return recvType(d.Recv.List[0].Type).Name + "." + d.Name.Name
}

// recvType is the named type of a method receiver, generic or not.
func recvType(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return ast.NewIdent("_")
		}
	}
}

// packageDocs checks that every package with non-test Go files, outside
// testdata and hidden directories, has a package doc comment on one file.
func packageDocs(t *tree) (out []string) {
	documented, first := map[string]bool{}, map[string]token.Pos{}
	for _, p := range t.paths {
		f := t.files[p]
		if f.ast == nil || strings.HasSuffix(p, "_test.go") || hidden(p) {
			continue
		}
		pkg := path.Dir(p) + ": package " + f.ast.Name.Name
		if _, ok := first[pkg]; !ok {
			first[pkg] = f.ast.Package
		}
		documented[pkg] = documented[pkg] || hasDoc(f.ast.Doc)
	}
	for pkg, pos := range first {
		if !documented[pkg] {
			out = append(out, fmt.Sprintf("%s: %s has no package doc comment (add one, e.g. in a doc.go)", t.fset.Position(pos), pkg))
		}
	}
	slices.Sort(out)
	return out
}

// hidden reports a path under a testdata or dot directory.
func hidden(p string) bool {
	for _, d := range strings.Split(path.Dir(p), "/") {
		if d == "testdata" || strings.HasPrefix(d, ".") && d != "." {
			return true
		}
	}
	return false
}

// rootExports checks that every exported top-level declaration of the
// root package — a method's only if its receiver type is exported too —
// has a doc comment, its own or its declaration group's.
func rootExports(t *tree) (out []string) {
	check := func(name *ast.Ident, docs ...*ast.CommentGroup) {
		if name.IsExported() && !slices.ContainsFunc(docs, hasDoc) {
			out = append(out, fmt.Sprintf("%s: exported %s is undocumented", t.fset.Position(name.Pos()), name.Name))
		}
	}
	for _, p := range t.paths {
		if f := t.files[p]; f.ast != nil && path.Dir(p) == "." && !strings.HasSuffix(p, "_test.go") {
			for _, d := range f.ast.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil || recvType(d.Recv.List[0].Type).IsExported() {
						check(d.Name, d.Doc)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							check(ts.Name, d.Doc, ts.Doc)
						} else if vs, ok := s.(*ast.ValueSpec); ok {
							for _, n := range vs.Names {
								check(n, d.Doc, vs.Doc)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// hasDoc reports a doc comment with text in it.
func hasDoc(g *ast.CommentGroup) bool {
	return g != nil && strings.TrimSpace(g.Text()) != ""
}
