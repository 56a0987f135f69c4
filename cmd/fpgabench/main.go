// Command fpgabench runs the engine's regression benchmark suite: the
// paper's evaluation instances plus seeded random ones, measuring
// branch-and-bound nodes, constraint propagations and wall time per
// case. Reports are machine-readable JSON (see BENCHMARKS.md); with
// -baseline the run is diffed against a committed report and the
// process exits non-zero on regression, which is how CI gates engine
// changes. Node and propagation counts are deterministic and diffed
// exactly; wall times carry a relative tolerance and an absolute noise
// floor.
//
// Usage:
//
//	fpgabench [-quick] [-runs N] [-out report.json]
//	          [-baseline BENCH_core.json] [-tolerance 0.5] [-floor 25ms]
//	          [-compare-ref] [-compare-strategy] [-compare-parallel N]
//	          [-workers N] [-list]
//
// With -online, fpgabench instead replays the seeded online placement
// scripts (module arrivals, departures, defrags) against fresh
// internal/online sessions, reporting admissions per second, defrag
// move counts and p50/p99 admission latency per script into a
// schema-stamped report (fpgabench/online/v1, committed as
// BENCH_online.json). Decision counts and probe nodes are deterministic
// and diffed exactly; latencies are tolerance-gated:
//
//	fpgabench -online [-quick] [-runs N] [-out BENCH_online.json]
//	          [-baseline BENCH_online.json] [-tolerance 0.5] [-floor 25ms]
//
// With -anytime, fpgabench measures the anytime tier's quality-vs-time
// curves: every paper instance is minimized in anytime mode and the
// incumbent's optimality gap is sampled 10ms, 100ms and 1s into the
// run, alongside the time to reach and to prove the optimum
// (fpgabench/anytime/v1, committed as BENCH_anytime.json). The final
// answer is diffed exactly — a completed anytime run must land on the
// staged optimum at gap 0 — while the per-deadline gaps carry an
// absolute slack and the wall times the usual tolerance:
//
//	fpgabench -anytime [-quick] [-runs N] [-out BENCH_anytime.json]
//	          [-baseline BENCH_anytime.json] [-tolerance 0.5] [-floor 25ms]
//
// Exit codes: 0 success, 1 usage or solver error, 2 regression against
// the baseline (or determinism violation).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"fpga3d/internal/core"
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
		runs            = fs.Int("runs", 3, "repetitions per case; the minimum wall time is reported")
		out             = fs.String("out", "", "write the JSON report to this path ('-' for stdout)")
		baseline        = fs.String("baseline", "", "diff against this committed report; exit 2 on regression")
		tolerance       = fs.Float64("tolerance", 0.5, "relative wall-time slack before a case counts as regressed")
		floor           = fs.Duration("floor", 25*time.Millisecond, "absolute wall-time slack; micro-cases under this never regress")
		compareRef      = fs.Bool("compare-ref", false, "also time the reference rule paths and record the speedup")
		workers         = fs.Int("workers", 0, "parallelism is opt-in: >1 additionally times optimization sweeps racing on this many workers")
		compareStrategy = fs.Bool("compare-strategy", false, "also run every case under the portfolio strategy; exit 2 if it changes an answer, or increases a node count on a paper instance")
		compareParallel = fs.Int("compare-parallel", 0, "also run single-decision (opp) cases with an intra-probe work-stealing pool of this size; exit 2 if any answer changes")
		onlineMode      = fs.Bool("online", false, "replay the online placement scripts instead of the core solver suite")
		anytimeMode     = fs.Bool("anytime", false, "measure anytime quality-vs-time curves instead of the core solver suite")
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
		return runOnline(stdout, stderr, *quick, *list, *runs, *out, *baseline, *tolerance, *floor)
	}
	if *anytimeMode {
		return runAnytime(stdout, stderr, *quick, *list, *runs, *out, *baseline, *tolerance, *floor)
	}
	cases := suite()
	if *list {
		for _, c := range cases {
			tag := ""
			if c.quick {
				tag = " [quick]"
			}
			fmt.Fprintf(stdout, "%-24s %s%s\n", c.name, c.kind, tag)
		}
		return 0
	}

	rep := &Report{
		Schema:    ReportSchema,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Env:       envStamp(),
		Runs:      *runs,
		Quick:     *quick,
		Workers:   *workers,
	}
	exit := 0
	for _, c := range cases {
		if *quick && !c.quick {
			continue
		}
		// Sequential, search-only unless the case opts into the full
		// framework: wall time is engine time and the node count is
		// the deterministic single-probe sequence.
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
			if ref.Status != e.Status || ref.Value != e.Value || ref.Nodes != e.Nodes || ref.Propagations != e.Propagations {
				fmt.Fprintf(stderr, "fpgabench: %s: reference rules diverge: %s/%d %d nodes %d props, fast %s/%d %d nodes %d props\n",
					c.name, ref.Status, ref.Value, ref.Nodes, ref.Propagations, e.Status, e.Value, e.Nodes, e.Propagations)
				exit = 2
			}
			e.RefWallNS = ref.WallNS
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
			// cheap probe for a costlier one, so those counts are
			// recorded but not enforced.
			if paperInstance(c.name) && p.Nodes > e.Nodes {
				fmt.Fprintf(stderr, "fpgabench: %s: portfolio expanded %d nodes, staged %d — incumbent sharing may only prune on paper instances\n",
					c.name, p.Nodes, e.Nodes)
				exit = 2
			}
			e.PortfolioNodes = &p.Nodes
			e.PortfolioWallNS = p.WallNS
		}
		if *compareParallel > 1 && c.kind == "opp" {
			// Intra-probe work stealing: the same single decision on a
			// shared-tree pool. Answer equality is the gate; nodes and
			// steals are sum-of-shards, recorded but never diffed.
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
			e.ParallelWorkers = *compareParallel
			e.ParallelNodes = p.Nodes
			e.ParallelSteals = p.Steals
			e.ParallelWallNS = p.WallNS
			if p.WallNS > 0 {
				e.ParallelSpeedup = float64(e.WallNS) / float64(p.WallNS)
			}
		}
		if *workers > 1 && c.kind != "opp" {
			// Racing probes cancel each other, so stats are not
			// deterministic here; record wall time only.
			wOpt := opt
			wOpt.Workers = *workers
			w, err := measureCase(c, wOpt, *runs)
			if err != nil {
				fmt.Fprintf(stderr, "fpgabench: %s (workers): %v\n", c.name, err)
				return 1
			}
			if w.Status != e.Status || w.Value != e.Value {
				fmt.Fprintf(stderr, "fpgabench: %s: parallel sweep changed the answer: %s/%d, sequential %s/%d\n",
					c.name, w.Status, w.Value, e.Status, e.Value)
				return 1
			}
			e.WorkersWallNS = w.WallNS
		}
		rep.Entries = append(rep.Entries, e)
		printEntry(stdout, e)
	}

	if *out != "" {
		if err := writeReport(rep, *out); err != nil {
			fmt.Fprintf(stderr, "fpgabench: write report: %v\n", err)
			return 1
		}
	}
	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			fmt.Fprintf(stderr, "fpgabench: baseline: %v\n", err)
			return 1
		}
		msgs := diffReports(base, rep, *tolerance, *floor)
		for _, m := range msgs {
			fmt.Fprintf(stderr, "fpgabench: REGRESSION: %s\n", m)
		}
		if len(msgs) > 0 {
			return 2
		}
		fmt.Fprintf(stdout, "baseline %s: %d cases compared, no regressions\n", *baseline, len(rep.Entries))
	}
	return exit
}

// measureCase runs one case `runs` times under the given options and
// returns an entry with the minimum wall time. Sequential runs must
// agree on node and propagation counts across repetitions — a mismatch
// means the engine lost determinism, which the harness treats as a hard
// error. With Workers > 1 racing probes cancel each other at
// timing-dependent points, so only the answer is checked there.
func measureCase(c benchCase, opt solver.Options, runs int) (Entry, error) {
	e := Entry{Name: c.name, Kind: c.kind, GoMaxProcs: runtime.GOMAXPROCS(0)}
	var first core.Stats
	for r := 0; r < runs; r++ {
		start := time.Now()
		status, value, stats, err := c.run(opt)
		wall := time.Since(start)
		if err != nil {
			return e, err
		}
		if r == 0 {
			first = stats
			e.Status, e.Value = status, value
			e.Nodes, e.Propagations = stats.Nodes, stats.Propagations
			e.Steals = stats.Steals
			e.WallNS = int64(wall)
			continue
		}
		if status != e.Status || value != e.Value {
			return e, fmt.Errorf("nondeterministic answer: run %d gave %s/%d, run 0 gave %s/%d",
				r, status, value, e.Status, e.Value)
		}
		if opt.Workers == 1 && (stats.Nodes != first.Nodes || stats.Propagations != first.Propagations) {
			return e, fmt.Errorf("nondeterministic: run %d did %d nodes %d props, run 0 did %d nodes %d props",
				r, stats.Nodes, stats.Propagations, first.Nodes, first.Propagations)
		}
		if int64(wall) < e.WallNS {
			e.WallNS = int64(wall)
		}
	}
	return e, nil
}

// paperInstance reports whether a case name denotes one of the paper's
// evaluation designs (the Spartan DE reconfiguration or the H.261 video
// codec) as opposed to the HLS and seeded random additions.
func paperInstance(name string) bool {
	return strings.HasPrefix(name, "de/") || strings.HasPrefix(name, "codec/")
}

// printEntry renders one human-readable result line.
func printEntry(w io.Writer, e Entry) {
	line := fmt.Sprintf("%-24s %-10s nodes %8d  props %9d  %10v",
		e.Name, statusLabel(e), e.Nodes, e.Propagations, time.Duration(e.WallNS).Round(time.Microsecond))
	if e.RefWallNS > 0 && e.WallNS > 0 {
		line += fmt.Sprintf("  ref %10v  speedup %.2fx",
			time.Duration(e.RefWallNS).Round(time.Microsecond), float64(e.RefWallNS)/float64(e.WallNS))
	}
	if e.PortfolioNodes != nil {
		line += fmt.Sprintf("  portfolio %8d", *e.PortfolioNodes)
	}
	if e.ParallelWorkers > 0 {
		line += fmt.Sprintf("  par(%d) %10v  steals %4d  speedup %.2fx",
			e.ParallelWorkers, time.Duration(e.ParallelWallNS).Round(time.Microsecond), e.ParallelSteals, e.ParallelSpeedup)
	}
	if e.WorkersWallNS > 0 {
		line += fmt.Sprintf("  workers %10v", time.Duration(e.WorkersWallNS).Round(time.Microsecond))
	}
	fmt.Fprintln(w, line)
}

// statusLabel folds the optimum into the status column for
// optimization cases.
func statusLabel(e Entry) string {
	if e.Kind == "opp" {
		return e.Status
	}
	return fmt.Sprintf("%s=%d", e.Kind, e.Value)
}
