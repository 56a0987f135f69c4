package solver

import (
	"reflect"
	"runtime"
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
)

// TestDefaultWorkersIsSequential: parallelism is opt-in, so on a
// multi-core host the zero Options must run exactly the sequential
// solver — the same probes, statistics and witness as Workers: 1 —
// under every strategy, for sweeps the bounds and greedy settle and for
// one that searches (biquad).
func TestDefaultWorkersIsSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	type question struct {
		name string
		run  func(Options) (*OptResult, error)
	}
	minTime := func(in *model.Instance, w, h int) func(Options) (*OptResult, error) {
		return func(o Options) (*OptResult, error) { return MinTime(in, w, h, o) }
	}
	qs := []question{
		{"de.min_time.17x17", minTime(bench.DE(), 17, 17)},
		{"de.min_base.t13", func(o Options) (*OptResult, error) { return MinBase(bench.DE(), 13, o) }},
		{"codec.min_time.64x64", minTime(bench.VideoCodec(), 64, 64)},
		{"biquad3.min_time.17x17", minTime(bench.Biquad(3), 17, 17)},
	}
	for _, q := range qs {
		for _, strat := range []string{"staged", "portfolio", "anneal"} {
			def, err := q.run(Options{Strategy: strat})
			if err != nil {
				t.Fatalf("%s/%s default: %v", q.name, strat, err)
			}
			seq, err := q.run(Options{Strategy: strat, Workers: 1})
			if err != nil {
				t.Fatalf("%s/%s Workers 1: %v", q.name, strat, err)
			}
			if def.Decision != seq.Decision || def.Value != seq.Value || def.Probes != seq.Probes ||
				def.LowerBound != seq.LowerBound || def.BestBound != seq.BestBound {
				t.Fatalf("%s/%s: default %v/%d after %d probes, Workers 1 %v/%d after %d probes",
					q.name, strat, def.Decision, def.Value, def.Probes, seq.Decision, seq.Value, seq.Probes)
			}
			if def.Stats != seq.Stats {
				t.Fatalf("%s/%s: default stats %+v, Workers 1 %+v", q.name, strat, def.Stats, seq.Stats)
			}
			if !reflect.DeepEqual(def.Placement, seq.Placement) {
				t.Fatalf("%s/%s: default witness differs from the Workers 1 witness", q.name, strat)
			}
		}
	}
}
