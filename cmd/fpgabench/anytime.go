package main

import (
	"fmt"
	"io"

	"fpga3d/internal/bench"
	"fpga3d/internal/benchgate"
	"fpga3d/internal/model"
	"fpga3d/internal/solver"
)

// AnytimeReportSchema identifies the anytime report format; bump it on
// incompatible changes so a stale committed baseline fails loudly.
const AnytimeReportSchema = "fpgabench/anytime/v2"

// anytimeCase is one minimize-time question solved in anytime mode.
type anytimeCase struct {
	name  string
	quick bool
	mk    func() *model.Instance
	w, h  int
}

// anytimeSuite returns the anytime cases: the paper's evaluation
// instances on their benchmark chips. Every case must run to proven
// optimality (final gap 0), so only tractable minimize-time sweeps
// belong here.
func anytimeSuite() []anytimeCase {
	return []anytimeCase{
		{name: "de/anytime/17x17", quick: true, mk: bench.DE, w: 17, h: 17},
		{name: "de/anytime/33x16", mk: bench.DE, w: 33, h: 16},
		{name: "codec/anytime/64x64", mk: bench.VideoCodec, w: 64, h: 64},
		{name: "hls/biquad3/17x17", quick: true, mk: func() *model.Instance { return bench.Biquad(3) }, w: 17, h: 17},
	}
}

// AnytimeEntry is the final answer of one anytime run. The anytime
// refinement is gated to land on the staged answer, so every field is
// deterministic and diffed exactly against the baseline.
type AnytimeEntry struct {
	Name   string `json:"name"`
	Status string `json:"status"`
	// Value is the optimum; LowerBound the stage-1 bound the run
	// started from.
	Value      int `json:"value"`
	LowerBound int `json:"lower_bound"`
	// FinalGap must be 0: a completed anytime run proves its incumbent.
	// It is checked at measurement time, before any baseline enters the
	// picture.
	FinalGap float64 `json:"final_gap"`
}

// AnytimeReport is the machine-readable output of fpgabench -anytime.
type AnytimeReport = benchgate.Report[AnytimeEntry]

// runAnytime is the -anytime entry point: solve every suite case in
// anytime mode, gate the final answer's determinism and proven gap, and
// optionally diff against a committed baseline.
func runAnytime(stdout, stderr io.Writer, quick, list bool, runs int, out, baseline string) int {
	cases := anytimeSuite()
	if list {
		for _, c := range cases {
			listCase(stdout, c.name, "anytime", c.quick)
		}
		return 0
	}
	rep := newReport[AnytimeEntry](AnytimeReportSchema, runs, quick)
	for _, c := range cases {
		if quick && !c.quick {
			continue
		}
		e, err := measureAnytimeCase(c, runs)
		if err != nil {
			fmt.Fprintf(stderr, "fpgabench: %s: %v\n", c.name, err)
			return 1
		}
		rep.Entries = append(rep.Entries, e)
		fmt.Fprintf(stdout, "%-24s opt %3d  lb %3d  gap %g\n", e.Name, e.Value, e.LowerBound, e.FinalGap)
	}
	return finish(rep, out, baseline, stdout, stderr)
}

// measureAnytimeCase solves one case `runs` times in anytime mode. Every
// run must be proven (gap 0) and every repetition must give the same
// entry.
func measureAnytimeCase(c anytimeCase, runs int) (AnytimeEntry, error) {
	var first AnytimeEntry
	for r := 0; r < runs; r++ {
		res, err := solver.MinTime(c.mk(), c.w, c.h, solver.Options{Workers: 1, Anytime: true})
		if err != nil {
			return first, err
		}
		if res.Gap != 0 || res.BestBound != res.Value {
			return first, fmt.Errorf("completed anytime run not proven: gap %v, best bound %d, value %d",
				res.Gap, res.BestBound, res.Value)
		}
		e := AnytimeEntry{Name: c.name, Status: res.Decision.String(), Value: res.Value, LowerBound: res.LowerBound, FinalGap: res.Gap}
		if r == 0 {
			first = e
		} else if e != first {
			return first, fmt.Errorf("nondeterministic answer: run %d gave %+v, run 0 gave %+v", r, e, first)
		}
	}
	return first, nil
}
