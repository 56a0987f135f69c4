// Command fpgabench runs the engine's exact regression suite: the
// paper's evaluation instances plus seeded random ones, recording each
// case's answer, branch-and-bound nodes and constraint propagations.
// These are deterministic, the same on every machine, so a run diffs
// exactly against a committed report: with -baseline the process exits
// 2 when any field of any case drifts, which is how CI gates engine
// changes (see BENCHMARKS.md). Every repetition of -runs must give the
// same entry. Timing is not measured here: cmd/fpgaperf judges it end
// to end.
//
// Usage:
//
//	fpgabench [-quick] [-runs N] [-out report.json]
//	          [-baseline BENCH_core.json]
//	          [-compare-ref] [-compare-strategy] [-compare-parallel N]
//	          [-list]
//
// -compare-ref, -compare-strategy and -compare-parallel are in-run
// gates: each re-runs the cases on another path (the reference rules,
// the portfolio preset, an intra-probe work-stealing pool) and exits 2
// on a changed answer, recording nothing.
//
// With -online, fpgabench instead replays the seeded online placement
// scripts (module arrivals, departures, defrags) against fresh
// internal/online sessions and records decision counts, defrag moves
// and exact-probe nodes per script (fpgabench/online/v2, committed as
// BENCH_online.json):
//
//	fpgabench -online [-quick] [-runs N] [-out BENCH_online.json]
//	          [-baseline BENCH_online.json]
//
// With -anytime, fpgabench minimizes every paper instance in anytime
// mode and records the final answer, which must be proven at gap 0
// (fpgabench/anytime/v2, committed as BENCH_anytime.json):
//
//	fpgabench -anytime [-quick] [-runs N] [-out BENCH_anytime.json]
//	          [-baseline BENCH_anytime.json]
//
// Exit codes: 0 success, 1 usage or solver error (a repetition that
// disagrees with the first included), 2 regression against the baseline
// or a failed in-run gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fpga3d/internal/benchgate"
	"fpga3d/internal/solver"
	"fpga3d/internal/strategy"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fpgabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list            = fs.Bool("list", false, "list benchmark cases and exit")
		quick           = fs.Bool("quick", false, "run only the quick subset (CI gate)")
		runs            = fs.Int("runs", 3, "repetitions per case; every repetition must give the same entry")
		out             = fs.String("out", "", "write the JSON report to this path ('-' for stdout)")
		baseline        = fs.String("baseline", "", "diff against this committed report; exit 2 on regression")
		compareRef      = fs.Bool("compare-ref", false, "also run every case on the reference rule paths; exit 2 if any field differs")
		compareStrategy = fs.Bool("compare-strategy", false, "also run every case under the portfolio strategy; exit 2 if it changes an answer, or increases a node count on a paper instance")
		compareParallel = fs.Int("compare-parallel", 0, "also run single-decision (opp) cases with an intra-probe work-stealing pool of this size; exit 2 if any answer changes")
		onlineMode      = fs.Bool("online", false, "replay the online placement scripts instead of the core solver suite")
		anytimeMode     = fs.Bool("anytime", false, "solve the anytime suite instead of the core solver suite")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *runs < 1 {
		*runs = 1
	}
	if *onlineMode && *anytimeMode {
		fmt.Fprintln(stderr, "fpgabench: -online and -anytime are mutually exclusive")
		return 1
	}
	if *onlineMode {
		return runOnline(stdout, stderr, *quick, *list, *runs, *out, *baseline)
	}
	if *anytimeMode {
		return runAnytime(stdout, stderr, *quick, *list, *runs, *out, *baseline)
	}
	cases := suite()
	if *list {
		for _, c := range cases {
			listCase(stdout, c.name, c.kind, c.quick)
		}
		return 0
	}

	rep := newReport[Entry](ReportSchema, *runs, *quick)
	exit := 0
	for _, c := range cases {
		if *quick && !c.quick {
			continue
		}
		// Sequential, search-only unless the case opts into the full
		// framework: the node count is the deterministic single-probe
		// sequence.
		opt := solver.Options{SkipBounds: !c.full, SkipHeuristic: !c.full, Workers: 1, NodeLimit: c.nodeLimit}
		e, err := measureCase(c, opt, *runs)
		if err != nil {
			fmt.Fprintf(stderr, "fpgabench: %s: %v\n", c.name, err)
			return 1
		}
		if *compareRef {
			refOpt := opt
			refOpt.ReferenceRules = true
			ref, err := measureCase(c, refOpt, *runs)
			if err != nil {
				fmt.Fprintf(stderr, "fpgabench: %s (reference): %v\n", c.name, err)
				return 1
			}
			if ref != e {
				fmt.Fprintf(stderr, "fpgabench: %s: reference rules diverge: %s/%d %d nodes %d props, fast %s/%d %d nodes %d props\n",
					c.name, ref.Status, ref.Value, ref.Nodes, ref.Propagations, e.Status, e.Value, e.Nodes, e.Propagations)
				exit = 2
			}
		}
		if *compareStrategy {
			pOpt := opt
			pOpt.Strategy = strategy.NamePortfolio
			p, err := measureCase(c, pOpt, *runs)
			if err != nil {
				fmt.Fprintf(stderr, "fpgabench: %s (portfolio): %v\n", c.name, err)
				return 1
			}
			if p.Status != e.Status || p.Value != e.Value {
				fmt.Fprintf(stderr, "fpgabench: %s: portfolio changed the answer: %s/%d, staged %s/%d\n",
					c.name, p.Status, p.Value, e.Status, e.Value)
				exit = 2
			}
			// Node counts are gated only on the paper's instances: there
			// the portfolio's incumbent sharing is pure pruning (see
			// TestPortfolioNeverIncreasesNodesOnPaperInstances). On other
			// optimization sweeps the portfolio re-sequences probes
			// (frontier-first, witness tightening), which can trade a
			// cheap probe for a costlier one.
			if paperInstance(c.name) && p.Nodes > e.Nodes {
				fmt.Fprintf(stderr, "fpgabench: %s: portfolio expanded %d nodes, staged %d — incumbent sharing may only prune on paper instances\n",
					c.name, p.Nodes, e.Nodes)
				exit = 2
			}
		}
		if *compareParallel > 1 && c.kind == "opp" {
			// Intra-probe work stealing: the same single decision on a
			// shared-tree pool. Nodes are sum-of-shards and depend on
			// scheduling, so answer equality is the whole gate.
			pOpt := opt
			pOpt.Workers = *compareParallel
			p, err := measureCase(c, pOpt, *runs)
			if err != nil {
				fmt.Fprintf(stderr, "fpgabench: %s (parallel): %v\n", c.name, err)
				return 1
			}
			if p.Status != e.Status || p.Value != e.Value {
				fmt.Fprintf(stderr, "fpgabench: %s: parallel search changed the answer: %s/%d, sequential %s/%d\n",
					c.name, p.Status, p.Value, e.Status, e.Value)
				exit = 2
			}
		}
		rep.Entries = append(rep.Entries, e)
		fmt.Fprintf(stdout, "%-24s %-10s nodes %8d  props %9d\n", e.Name, statusLabel(e), e.Nodes, e.Propagations)
	}
	if code := finish(rep, *out, *baseline, stdout, stderr); code != 0 {
		return code
	}
	return exit
}

// newReport starts a report of the given schema for a run of the
// given repetitions and subset.
func newReport[E any](schema string, runs int, quick bool) *benchgate.Report[E] {
	r := benchgate.New[E](schema)
	r.Runs, r.Quick = runs, quick
	return &r
}

// listCase prints one -list line.
func listCase(w io.Writer, name, kind string, quick bool) {
	tag := ""
	if quick {
		tag = " [quick]"
	}
	fmt.Fprintf(w, "%-24s %s%s\n", name, kind, tag)
}

// finish writes the report to out, if set, and diffs it against the
// baseline, if set. It returns the exit code: 1 on an I/O error, 2 on a
// regression.
func finish[E any](rep *benchgate.Report[E], out, baseline string, stdout, stderr io.Writer) int {
	if out != "" {
		if err := benchgate.Write(rep, out); err != nil {
			fmt.Fprintf(stderr, "fpgabench: write report: %v\n", err)
			return 1
		}
	}
	if baseline == "" {
		return 0
	}
	var base benchgate.Report[E]
	if err := benchgate.Read(baseline, rep.Schema, &base); err != nil {
		fmt.Fprintf(stderr, "fpgabench: baseline: %v\n", err)
		return 1
	}
	msgs := benchgate.Diff(&base, rep)
	for _, m := range msgs {
		fmt.Fprintf(stderr, "fpgabench: REGRESSION: %s\n", m)
	}
	if len(msgs) > 0 {
		return 2
	}
	fmt.Fprintf(stdout, "baseline %s: %d cases compared, no regressions\n", baseline, len(rep.Entries))
	return 0
}

// measureCase runs one case `runs` times under the given options. With
// one worker every repetition must return the same entry: a mismatch
// means the engine lost determinism, which the harness treats as a hard
// error. With an intra-probe pool nodes are sum-of-shards and depend on
// scheduling, so only the answer is checked there.
func measureCase(c benchCase, opt solver.Options, runs int) (Entry, error) {
	var first Entry
	for r := 0; r < runs; r++ {
		status, value, stats, err := c.run(opt)
		if err != nil {
			return first, err
		}
		e := Entry{Name: c.name, Kind: c.kind, Status: status, Value: value, Nodes: stats.Nodes, Propagations: stats.Propagations}
		switch {
		case r == 0:
			first = e
		case e.Status != first.Status || e.Value != first.Value:
			return first, fmt.Errorf("nondeterministic answer: run %d gave %s/%d, run 0 gave %s/%d",
				r, e.Status, e.Value, first.Status, first.Value)
		case opt.Workers == 1 && e != first:
			return first, fmt.Errorf("nondeterministic: run %d did %d nodes %d props, run 0 did %d nodes %d props",
				r, e.Nodes, e.Propagations, first.Nodes, first.Propagations)
		}
	}
	return first, nil
}

// paperInstance reports whether a case name denotes one of the paper's
// evaluation designs (the Spartan DE reconfiguration or the H.261 video
// codec) as opposed to the HLS and seeded random additions.
func paperInstance(name string) bool {
	return strings.HasPrefix(name, "de/") || strings.HasPrefix(name, "codec/")
}

// statusLabel folds the optimum into the status column for
// optimization cases.
func statusLabel(e Entry) string {
	if e.Kind == "opp" {
		return e.Status
	}
	return fmt.Sprintf("%s=%d", e.Kind, e.Value)
}
