package fpga3d

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoTestOnlyCode keeps the internal packages free of code that
// only tests call: every function and method declared in a non-test
// file under internal/ must be named by some non-test Go file of the
// repository (cmd/fpgaperf, a module of its own, included) other than
// by its own declaration. Names are matched without types, so a use of
// a name counts for every declaration of it; a method that only an
// interface calls is caught only when no file names it. allowed holds
// the deliberate exceptions, keyed package.Func or package.Type.Method;
// an entry that no longer names test-only code fails the test too.
func TestNoTestOnlyCode(t *testing.T) {
	allowed := map[string]string{
		"geomsearch.SolveFixed":      "geomsearch is the geometric reference oracle of the differential tests, kept whole",
		"obs.NewTracerWithClock":     "tests substitute a fake clock",
		"jobs.Store.SetClock":        "tests substitute a fake clock",
		"core.Stats.ForcedByRule":    "public API: fpga3d.Stats is core.Stats",
		"core.Stats.RejectsByReason": "public API: fpga3d.Stats is core.Stats",
		"model.Placement.Schedule":   "public API: fpga3d.Placement is model.Placement",
	}
	type decl struct{ key, pos, name string }
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		names := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fd.Name] = true
			if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				key := f.Name.Name + "." + fd.Name.Name
				if fd.Recv != nil {
					key = f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, decl{key, fset.Position(fd.Pos()).String(), fd.Name.Name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		_, ok := allowed[d.key]
		switch {
		case used[d.name] && ok:
			t.Errorf("%s: %s is allowed as test-only but non-test code uses it; drop its entry", d.pos, d.key)
		case !used[d.name] && !ok:
			t.Errorf("%s: %s is called only by tests; delete it or move it into them", d.pos, d.key)
		}
		delete(allowed, d.key)
	}
	for key := range allowed {
		t.Errorf("allowed entry %s names no declaration", key)
	}
}

// recvName returns the type name of a method receiver.
func recvName(e ast.Expr) string {
	switch r := e.(type) {
	case *ast.StarExpr:
		return recvName(r.X)
	case *ast.IndexExpr:
		return recvName(r.X)
	case *ast.IndexListExpr:
		return recvName(r.X)
	case *ast.Ident:
		return r.Name
	}
	return ""
}
