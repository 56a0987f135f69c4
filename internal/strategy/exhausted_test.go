package strategy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/core"
	"fpga3d/internal/model"
)

// frontierDraw returns the k-th instance of the search-frontier corpus
// (bench.Random(14, 4, 4, 0.15) draws from seed 1, fpgaperf's
// rand14.k), before that corpus's filter.
func frontierDraw(k int) *model.Instance {
	rng := rand.New(rand.NewSource(1))
	var in *model.Instance
	for i := 0; i <= k; i++ {
		in = bench.Random(rng, 14, 4, 4, 0.15)
	}
	return in
}

// TestDifferentialExhaustedTrees runs the engine on infeasible MinTime
// probes of the search-frontier corpus whose trees exhaust below the
// root, which the random differential corpora almost never do: the
// fast and reference rule paths, and a run with a time hint (the
// earliest start times), must agree on every Stats field, and two- and
// four-worker searches on the verdict. rand14.048 at T=10 and
// rand14.133 at T=9 sit one cycle under their proven optima, so
// MinTime's last infeasible probe there is decided by the engine.
func TestDifferentialExhaustedTrees(t *testing.T) {
	for _, c := range []struct {
		draw, T int
		nodes   int64
	}{
		{72, 8, 11_708},
		{128, 12, 24_710},
		{48, 10, 1_373},
		{133, 9, 721},
	} {
		c := c
		t.Run(fmt.Sprintf("rand14.%03d/T=%d", c.draw, c.T), func(t *testing.T) {
			t.Parallel()
			in := frontierDraw(c.draw)
			order, err := in.Order()
			if err != nil {
				t.Fatal(err)
			}
			p := BuildProblem(in, model.Container{W: 6, H: 6, T: c.T}, order, nil)
			opt := core.Options{TimeOverlapFirst: true}
			fast := core.Solve(p, opt)
			if fast.Status != core.StatusInfeasible || fast.Stats.Nodes != c.nodes {
				t.Fatalf("fast path: %v in %d nodes, want infeasible in %d", fast.Status, fast.Stats.Nodes, c.nodes)
			}
			ref := opt
			ref.ReferenceRules = true
			if r := core.Solve(p, ref); r.Status != fast.Status || !reflect.DeepEqual(r.Stats, fast.Stats) {
				t.Fatalf("reference path diverges\nfast: %+v\nref:  %+v", fast.Stats, r.Stats)
			}
			hinted := BuildProblem(in, model.Container{W: 6, H: 6, T: c.T}, order, nil)
			hinted.Dims[timeDim].Hint = make([]int, in.N())
			for v := range hinted.Dims[timeDim].Hint {
				hinted.Dims[timeDim].Hint[v] = order.EST(v)
			}
			if r := core.Solve(hinted, opt); r.Status != fast.Status || !reflect.DeepEqual(r.Stats, fast.Stats) {
				t.Fatalf("hinted run diverges\nunhinted: %+v\nhinted:   %+v", fast.Stats, r.Stats)
			}
			for _, workers := range []int{2, 4} {
				par := opt
				par.Workers = workers
				if got := core.Solve(p, par).Status; got != fast.Status {
					t.Fatalf("%d workers: %v, sequential %v", workers, got, fast.Status)
				}
			}
		})
	}
}
