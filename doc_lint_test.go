package fpga3d

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestGodocCoverage enforces the public-surface documentation contract:
// every exported top-level identifier (functions, methods, types,
// constants, variables) in the public packages carries a doc comment.
// CI runs this test, so an undocumented export fails the build.
func TestGodocCoverage(t *testing.T) {
	files := []string{
		"api.go",
		"observe.go",
		"extensions.go",
		"benchmarks.go",
		"pack/pack.go",
		// The engine's exported surface is the contract the solver and
		// the differential/benchmark harnesses program against.
		"internal/core/problem.go",
		"internal/core/stats.go",
		"internal/core/search.go",
		// The work-stealing pool and engine clone carry the parallel
		// determinism contract (answer-equal, sum-of-shards stats) in
		// their doc comments; keep them held to the same bar.
		"internal/core/steal.go",
		"internal/core/clone.go",
		// The obs metric-name constants are part of the monitoring API.
		"internal/obs/engine.go",
		"internal/obs/strategy.go",
		// The strategy layer is the stage pipeline every optimization
		// entry point is built on; its exported surface must stay
		// documented.
		"internal/strategy/strategy.go",
		"internal/strategy/pipeline.go",
		"internal/strategy/incumbents.go",
		"internal/strategy/problem.go",
		"internal/strategy/timings.go",
		// The annealing placer's exported surface (priority-rule table,
		// annealing options) is the anytime tier's tuning contract.
		"internal/heur/rules.go",
		"internal/heur/anneal.go",
		// The anytime update stream is public API (re-exported from
		// api.go); its field semantics are the serving contract.
		"internal/solver/anytime.go",
		// The shared bench report, its env stamp and the exact diff are
		// the baseline format and gate every bench command uses.
		"internal/benchgate/benchgate.go",
		// fpgabench's report types are the on-disk baseline format.
		"cmd/fpgabench/report.go",
		"cmd/fpgabench/main.go",
		"cmd/fpgabench/suite.go",
		"cmd/fpgabench/anytime.go",
		"cmd/fpgabench/online.go",
		// The async job store's exported surface is the lifecycle
		// contract the serving layer and its tests program against.
		"internal/server/jobs/jobs.go",
		// fpgaload's report types are the BENCH_serve.json baseline
		// format the serve-gate CI job diffs.
		"cmd/fpgaload/main.go",
		"cmd/fpgaload/report.go",
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc.Text() == "" {
					t.Errorf("%s: exported %s %s has no doc comment",
						path, kindOf(d), d.Name.Name)
				}
			case *ast.GenDecl:
				checkGenDecl(t, path, d)
			}
		}
	}
}

// kindOf names a function declaration for the error message.
func kindOf(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// checkGenDecl requires a doc comment on every exported const, var and
// type. The comment may sit on the grouped declaration (covering a
// const block) or on the individual spec.
func checkGenDecl(t *testing.T, path string, d *ast.GenDecl) {
	t.Helper()
	groupDoc := d.Doc.Text() != ""
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !groupDoc && s.Doc.Text() == "" {
				t.Errorf("%s: exported type %s has no doc comment", path, s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && !groupDoc && s.Doc.Text() == "" && s.Comment.Text() == "" {
					t.Errorf("%s: exported %s %s has no doc comment", path, d.Tok, name.Name)
				}
			}
		}
	}
}
