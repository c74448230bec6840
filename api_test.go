package upcxx_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAPIGolden pins the package's public surface: the sorted exported
// package-level identifiers of its non-test source must equal
// testdata/api.golden, one name a line. A name added, renamed or removed
// fails here until the golden changes with it.
func TestAPIGolden(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["upcxx"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						got = append(got, s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							got = append(got, n.Name)
						}
					}
				}
			}
		}
	}
	got = slices.DeleteFunc(got, func(n string) bool { return !ast.IsExported(n) })
	slices.Sort(got)
	b, err := os.ReadFile("testdata/api.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(b))
	for _, n := range got {
		if !slices.Contains(want, n) {
			t.Errorf("exported %s is not in testdata/api.golden", n)
		}
	}
	for _, n := range want {
		if !slices.Contains(got, n) {
			t.Errorf("testdata/api.golden names %s, which the package does not export", n)
		}
	}
	if !slices.Equal(got, want) && !t.Failed() {
		t.Errorf("testdata/api.golden is not sorted or repeats a name")
	}
}
