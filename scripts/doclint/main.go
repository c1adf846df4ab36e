// Command doclint enforces the repository's documentation contract:
//
//  1. Every package — the root API, every internal package, every command
//     and example — carries a package-level doc comment.
//  2. Every exported symbol of the root package (the public v2 API:
//     types, functions, methods, constants, variables) carries a doc
//     comment.
//
// It exits non-zero listing each violation as file:line, so CI can gate
// on it (scripts/doc-lint.sh).
//
// A second mode, "logan-serve -h 2>&1 | doclint serving", prints the
// generated blocks of docs/SERVING.md (see serving.go).
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// violation is one missing doc comment.
type violation struct {
	pos token.Position
	msg string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serving" {
		os.Exit(serving())
	}
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	dirs, err := goDirs(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		os.Exit(2)
	}
	var violations []violation
	for _, dir := range dirs {
		vs, err := lintDir(root, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", dir, err)
			os.Exit(2)
		}
		violations = append(violations, vs...)
	}
	sort.Slice(violations, func(a, b int) bool {
		if violations[a].pos.Filename != violations[b].pos.Filename {
			return violations[a].pos.Filename < violations[b].pos.Filename
		}
		return violations[a].pos.Line < violations[b].pos.Line
	})
	for _, v := range violations {
		fmt.Printf("%s:%d: %s\n", v.pos.Filename, v.pos.Line, v.msg)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d undocumented declarations\n", len(violations))
		os.Exit(1)
	}
}

// goDirs lists every directory under root holding non-test Go files.
func goDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// lintDir checks one package directory. Exported-symbol coverage is
// enforced only for the public root package; package docs everywhere.
func lintDir(root, dir string) ([]violation, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	isRoot := filepath.Clean(dir) == filepath.Clean(root)
	var out []violation
	for _, pkg := range pkgs {
		// Rule 1: a package doc comment on some file of the package.
		documented := false
		var first *ast.File
		var firstName string
		for name, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
			}
			if first == nil || name < firstName {
				first, firstName = f, name
			}
		}
		if !documented && first != nil {
			out = append(out, violation{
				pos: fset.Position(first.Package),
				msg: fmt.Sprintf("package %s has no package-level doc comment (add one, e.g. in a doc.go)", pkg.Name),
			})
		}
		if !isRoot {
			continue
		}
		// Rule 2: exported symbols of the root package.
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				out = append(out, lintDecl(fset, decl)...)
			}
		}
	}
	return out, nil
}

// lintDecl flags undocumented exported top-level declarations.
func lintDecl(fset *token.FileSet, decl ast.Decl) []violation {
	var out []violation
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || exportedRecv(d) == false {
			return nil
		}
		if d.Doc == nil || strings.TrimSpace(d.Doc.Text()) == "" {
			kind := "function"
			if d.Recv != nil {
				kind = "method"
			}
			out = append(out, violation{
				pos: fset.Position(d.Pos()),
				msg: fmt.Sprintf("exported %s %s is undocumented", kind, d.Name.Name),
			})
		}
	case *ast.GenDecl:
		groupDoc := d.Doc != nil && strings.TrimSpace(d.Doc.Text()) != ""
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				if !sp.Name.IsExported() {
					continue
				}
				if !groupDoc && (sp.Doc == nil || strings.TrimSpace(sp.Doc.Text()) == "") {
					out = append(out, violation{
						pos: fset.Position(sp.Pos()),
						msg: fmt.Sprintf("exported type %s is undocumented", sp.Name.Name),
					})
				}
			case *ast.ValueSpec:
				specDoc := sp.Doc != nil && strings.TrimSpace(sp.Doc.Text()) != ""
				for _, name := range sp.Names {
					if !name.IsExported() {
						continue
					}
					if !groupDoc && !specDoc {
						out = append(out, violation{
							pos: fset.Position(name.Pos()),
							msg: fmt.Sprintf("exported %s %s is undocumented (document it or its declaration group)", kindOf(d.Tok), name.Name),
						})
					}
				}
			}
		}
	}
	return out
}

// exportedRecv reports whether a method's receiver type is exported (or
// the declaration is a plain function). Methods on unexported types are
// not part of the public surface.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// kindOf names a const/var token for messages.
func kindOf(tok token.Token) string {
	if tok == token.CONST {
		return "constant"
	}
	return "variable"
}
