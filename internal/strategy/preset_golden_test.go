package strategy

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/bounds"
	"fpga3d/internal/core"
	"fpga3d/internal/heur"
	"fpga3d/internal/model"
)

const presetGoldenPath = "testdata/preset_golden.txt"

// presetSweeps runs a seeded MinTime sweep corpus under the named
// preset at one worker and renders every probe as one line: the
// decision, the deciding stage, the engine's node and propagation
// counts, and the witness. Each instance gets one environment with a
// fresh incumbent store, so later probes of a sweep see the witnesses
// of earlier ones, as in the solver's drivers. After the binary search
// each sweep probes its optimum once more and asks the fixed-schedule question for the greedy
// schedule on the chip and on the chip one column narrower.
func presetSweeps(t *testing.T, name string) []string {
	t.Helper()
	var lines []string
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := bench.Random(rng, 9+int(seed%6), 4, 4, 0.15)
		order, err := in.Order()
		if err != nil {
			t.Fatal(err)
		}
		const W, H = 6, 6
		env := &Env{
			SearchOpts: func(ctx context.Context) core.Options { return core.Options{Ctx: ctx, NodeLimit: 5000} },
			Inc:        NewIncumbents(),
		}
		s, err := Parse(name, env)
		if err != nil {
			t.Fatal(err)
		}
		probe := func(c model.Container, starts []int) *Result {
			r, err := s.Solve(context.Background(), &Problem{In: in, C: c, Order: order, FixedStarts: starts})
			if err != nil {
				t.Fatalf("%s seed %d %v: %v", name, seed, c, err)
			}
			wit := "-"
			if r.Placement != nil {
				wit = fmt.Sprintf("X%v Y%v S%v", r.Placement.X, r.Placement.Y, r.Placement.S)
			}
			kind := "opp"
			if starts != nil {
				kind = "fixed"
			}
			lines = append(lines, fmt.Sprintf("%s seed=%d %s %dx%dx%d %v %q nodes=%d props=%d %s",
				name, seed, kind, c.W, c.H, c.T, r.Decision, r.DecidedBy, r.Stats.Nodes, r.Stats.Propagations, wit))
			return r
		}
		lo := bounds.MinTimeLB(in, W, H, order)
		greedy, hi, ok := heur.MinMakespan(in, W, H, order)
		if !ok {
			t.Fatalf("seed %d: greedy placer found no schedule", seed)
		}
		for lo < hi {
			mid := (lo + hi) / 2
			switch probe(model.Container{W: W, H: H, T: mid}, nil).Decision {
			case Feasible:
				hi = mid
			case Infeasible:
				lo = mid + 1
			default:
				lo = hi
			}
		}
		// The optimum again: a preset that stores witnesses answers it
		// from the store.
		probe(model.Container{W: W, H: H, T: hi}, nil)
		for _, w := range []int{W, W - 1} {
			if in.MaxW() <= w {
				probe(model.Container{W: w, H: H, T: greedy.Makespan(in)}, greedy.S)
			}
		}
	}
	return lines
}

// TestPresetGolden pins every preset's probe answers, engine effort
// and witnesses on the seeded sweep corpus against a recording made
// before the presets shared one pipeline.
func TestPresetGolden(t *testing.T) {
	raw, err := os.ReadFile(presetGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var got []string
	for _, name := range Names() {
		got = append(got, presetSweeps(t, name)...)
	}
	if len(got) != len(want) {
		t.Fatalf("%d probes, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("probe %d:\ngot  %s\nwant %s", i, got[i], want[i])
		}
	}
}
