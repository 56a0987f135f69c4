package strategy

import (
	"context"
	"math/rand"
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/core"
	"fpga3d/internal/geomsearch"
	"fpga3d/internal/model"
)

// FuzzStrategyPresets solves a random instance of at most six tasks on
// a small container under every preset, each with a fresh incumbent
// store, with all stages, without the bounds, and without bounds and
// heuristic. Every decided answer must agree with every other and with
// the geometric oracle, every feasible witness must verify, and no
// preset may panic when a task is larger than the chip. Each
// environment is asked twice, so the second answer of a preset that
// stores witnesses comes from its store.
func FuzzStrategyPresets(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(3), uint8(3), uint8(3), uint8(6))
	f.Add(int64(7), uint8(5), uint8(4), uint8(2), uint8(4), uint8(2), uint8(4))
	f.Add(int64(42), uint8(2), uint8(6), uint8(3), uint8(1), uint8(5), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, n, maxSize, maxDur, w, h, T uint8) {
		rng := rand.New(rand.NewSource(seed))
		in := bench.Random(rng, 1+int(n%6), 1+int(maxSize%6), 1+int(maxDur%4), 0.3)
		order, err := in.Order()
		if err != nil {
			t.Fatal(err)
		}
		c := model.Container{W: 1 + int(w%5), H: 1 + int(h%5), T: 1 + int(T%8)}
		var want Decision
		switch r := geomsearch.Solve(in, c, order, geomsearch.Options{NodeLimit: 2_000_000}); r.Status {
		case geomsearch.Feasible:
			want = Feasible
		case geomsearch.Infeasible:
			want = Infeasible
		}
		for _, name := range Names() {
			for _, skip := range []struct{ bounds, heur bool }{{false, false}, {true, false}, {true, true}} {
				env := &Env{
					SearchOpts:    func(ctx context.Context) core.Options { return core.Options{Ctx: ctx, NodeLimit: 200_000} },
					SkipBounds:    skip.bounds,
					SkipHeuristic: skip.heur,
					Inc:           NewIncumbents(),
				}
				pl := mustParse(t, name, env)
				for range 2 {
					res, err := pl.Solve(context.Background(), &Problem{In: in, C: c, Order: order})
					if err != nil {
						t.Fatalf("%s skip=%+v %v: %v", name, skip, c, err)
					}
					if res.Decision == Unknown {
						continue
					}
					if want == Unknown {
						want = res.Decision
					} else if res.Decision != want {
						t.Fatalf("%s skip=%+v %v: %v by %q, want %v", name, skip, c, res.Decision, res.DecidedBy, want)
					}
					if res.Decision == Feasible {
						if err := res.Placement.Verify(in, c, order); err != nil {
							t.Fatalf("%s skip=%+v %v: witness by %q invalid: %v", name, skip, c, res.DecidedBy, err)
						}
					}
				}
			}
		}
	})
}
