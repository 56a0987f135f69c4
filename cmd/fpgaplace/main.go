// Command fpgaplace solves FPGA module placement problems from JSON
// instance files with the exact packing-class solver.
//
// Usage:
//
//	fpgaplace -instance de.json -mode opp  -W 32 -H 32 -T 6
//	fpgaplace -instance de.json -mode spp  -W 17 -H 17
//	fpgaplace -instance de.json -mode bmp  -T 13
//	fpgaplace -instance de.json -mode fixed -W 33 -H 33 -T 6 -starts 0,0,2,4,5,0,2,0,2,0,1
//	fpgaplace -instance de.json -mode pareto
//	fpgaplace -builtin de -mode bmp -T 6
//
// Modes follow the paper's problem names: opp = FeasAT&FindS,
// spp = MinT&FindS, bmp = MinA&FindS, fixed = FeasA&FixedS,
// pareto = the Figure-7 trade-off curve.
//
// Observability:
//
//	fpgaplace -builtin de -mode spp -W 17 -H 17 -progress          # live status line on stderr
//	fpgaplace -builtin de -mode spp -W 17 -H 17 -trace run.jsonl   # JSONL event trace + span tree
//	fpgaplace -builtin de -mode spp -W 17 -H 17 -json              # machine-readable result
//	fpgaplace -builtin de -mode spp -W 17 -H 17 -log-format json   # structured diagnostics on stderr
//	fpgaplace -builtin de -mode spp -W 17 -H 17 -metrics :8123     # live metrics endpoint
//	fpgaplace -mode tracestats -trace run.jsonl                    # summarize a recorded trace
//
// A -trace file carries, besides the solver's event stream, a span
// tree rooted at a "run" span: every optimization driver, OPP probe
// and stage emits a "span" event on completion, all stamped with one
// request ID, mirroring what fpgad emits per HTTP request.
//
// Parallelism and deadlines:
//
//	fpgaplace -builtin de -mode bmp -T 6 -workers 4     # sweeps race whole probes
//	                                                    # (bit-identical); single
//	                                                    # decisions steal subtrees
//	                                                    # (answer-equal)
//	fpgaplace -builtin de -mode bmp -T 6 -timeout 30s   # whole-run deadline
//
// -workers buys parallelism at two levels (README.md, "Parallelism &
// deadlines"): optimization sweeps race independent feasibility probes
// and stay bit-identical to sequential runs, while a single decision
// runs its branch-and-bound tree on a work-stealing pool — same
// verdict and optimum, possibly a different (always valid) witness.
// Both are opt-in: only a value above 1 runs either; 0 (the default)
// and 1 are fully sequential.
//
// A run cut off by -timeout prints the partial result as JSON and
// exits with status 3 (exitDeadline), so scripts can distinguish
// "ran out of time" from a solver error (status 1) and a proven
// answer (status 0).
//
// Anytime mode (spp only):
//
//	fpgaplace -builtin de -mode spp -W 17 -H 17 -anytime -timeout 100ms
//
// -anytime runs the minimization as an anytime solve: a greedy
// incumbent lands immediately, a randomized annealing placer tightens
// it, and the exact search refines to proven optimality — each
// improvement printed to stderr with the current optimality gap. The
// final answer equals the plain run's; a -timeout that expires midway
// still yields the best-known schedule, its best_bound and its gap in
// the JSON partial result (gap 0 means proven optimal).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"fpga3d"
)

// exitDeadline is the exit status of a run whose -timeout expired
// before the answer was proven (the partial result goes to stdout as
// JSON). Distinct from 0 (answer proven) and 1 (error).
const exitDeadline = 3

func main() {
	log.SetFlags(0)
	log.SetPrefix("fpgaplace: ")

	var (
		instancePath = flag.String("instance", "", "JSON instance file")
		builtin      = flag.String("builtin", "", "built-in benchmark instead of a file: de, videocodec")
		mode         = flag.String("mode", "opp", "opp | spp | bmp | fixed | pareto | minarea | multichip | rotate | tracestats")
		w            = flag.Int("W", 0, "chip width in cells (opp, spp, fixed)")
		h            = flag.Int("H", 0, "chip height in cells (opp, spp, fixed)")
		tBudget      = flag.Int("T", 0, "time budget in cycles (opp, bmp, fixed)")
		startsArg    = flag.String("starts", "", "comma-separated start times (fixed)")
		chips        = flag.Int("chips", 0, "number of identical chips (multichip; 0 = minimize)")
		noPrec       = flag.Bool("no-prec", false, "drop all precedence constraints")
		showPlace    = flag.Bool("placement", true, "print the witness placement")
		showGantt    = flag.Bool("gantt", false, "print an ASCII schedule chart")
		svgPath      = flag.String("svg", "", "write the witness placement as SVG to this file")
		reconfig     = flag.Int("reconfig", 0, "per-task reconfiguration overhead folded into durations")
		nodeLimit    = flag.Int64("node-limit", 0, "branch-and-bound node budget (0 = unlimited)")
		timeLimit    = flag.Duration("time-limit", 5*time.Minute, "wall-clock budget per decision")
		workers      = flag.Int("workers", 0, "parallelism, opt-in: >1 races sweep probes (bit-identical) and steals subtrees in single decisions (answer-equal); 0 and 1 are fully sequential")
		strategyName = flag.String("strategy", "", "solve strategy: staged (default; bounds, heuristic, search in order) | portfolio (incumbent sharing, prover-vs-search racing) | anneal (staged plus a randomized annealing stage before the exact search)")
		anytime      = flag.Bool("anytime", false, "anytime minimization (spp only): stream improvements with optimality gaps to stderr; a partial result keeps the best-known schedule and its gap")
		annealSeed   = flag.Int64("anneal-seed", 0, "seed for the randomized annealing placer (0 = default seed; runs are deterministic per seed)")
		timeout      = flag.Duration("timeout", 0, "whole-run deadline; on expiry the partial result is printed as JSON and the exit status is 3 (0 = none)")
		progress     = flag.Bool("progress", false, "print a live search status line to stderr")
		logFormat    = flag.String("log-format", "text", "diagnostic log output: text | json")
		tracePath    = flag.String("trace", "", "write a JSONL event trace (including the run's span tree) to this file (input file for mode=tracestats)")
		metricsAddr  = flag.String("metrics", "", "serve live solver metrics as JSON on this address (e.g. :8123)")
		jsonOut      = flag.Bool("json", false, "print the result as JSON instead of text")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if err := applyLogFormat(*logFormat); err != nil {
		log.Fatal(err)
	}
	if err := validateFlags(*mode, setFlags()); err != nil {
		log.Fatal(err)
	}

	if *mode == "tracestats" {
		if *tracePath == "" {
			log.Fatal("mode=tracestats needs -trace with the JSONL file to summarize")
		}
		if err := traceStats(os.Stdout, *tracePath, *jsonOut); err != nil {
			log.Fatal(err)
		}
		return
	}

	in, err := loadInstance(*instancePath, *builtin)
	if err != nil {
		log.Fatal(err)
	}
	if *noPrec {
		in = in.WithoutPrecedence()
	}
	if *reconfig > 0 {
		in, err = in.WithUniformReconfigOverhead(*reconfig)
		if err != nil {
			log.Fatal(err)
		}
	}
	opt := &fpga3d.Options{NodeLimit: *nodeLimit, TimeLimit: *timeLimit, Workers: *workers, Strategy: *strategyName, AnnealSeed: *annealSeed}
	if *anytime {
		opt.Anytime = true
		opt.OnImprovement = func(u fpga3d.AnytimeUpdate) {
			status := "gap"
			if u.Final {
				status = "proved optimal, gap"
			}
			fmt.Fprintf(os.Stderr, "anytime: best %d, lower bound %d (%s %.3f, %s, %v)\n",
				u.Best, u.LowerBound, status, u.Gap, u.Source, u.Elapsed.Round(time.Millisecond))
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, finishObs, err := setupObs(ctx, opt, *mode, *progress, *tracePath, *metricsAddr, *cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer finishObs()
	// exitPartial ends a run whose deadline expired: the partial result
	// goes to stdout as JSON (regardless of -json, so scripts always get
	// something parseable) and the process exits with exitDeadline.
	exitPartial := func(payload map[string]any, cause error) {
		finishObs()
		payload["timed_out"] = true
		emitJSON(payload)
		log.Printf("timeout after %v: %v", *timeout, cause)
		os.Exit(exitDeadline)
	}
	// With -json the human placement table is off unless asked for.
	if *jsonOut && !flagWasSet("placement") {
		*showPlace = false
	}
	svgOut := func(p *fpga3d.Placement, c fpga3d.Chip) {
		if *svgPath == "" || p == nil {
			return
		}
		f, err := os.Create(*svgPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := in.WriteSVG(f, p, c); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *svgPath)
	}

	switch *mode {
	case "opp":
		requireFlags(*w > 0 && *h > 0 && *tBudget > 0, "-W, -H and -T")
		chip := fpga3d.Chip{W: *w, H: *h, T: *tBudget}
		res, err := fpga3d.SolveCtx(ctx, in, chip, opt)
		if err != nil {
			log.Fatal(err)
		}
		if res.DecidedBy == "canceled" && ctx.Err() != nil {
			exitPartial(feasJSON(in, "opp", chip, res), ctx.Err())
		}
		finishObs()
		if *jsonOut {
			emitJSON(feasJSON(in, "opp", chip, res))
			break
		}
		fmt.Printf("%s on %v: %v (decided by %s, %d nodes, %v)\n",
			in.Name(), chip, res.Decision, res.DecidedBy, res.Nodes, res.Elapsed.Round(time.Microsecond))
		fmt.Printf("stages: %v\n", res.Stages)
		printPlacement(in, res.Placement, *showPlace, *showGantt)
		svgOut(res.Placement, chip)

	case "spp":
		requireFlags(*w > 0 && *h > 0, "-W and -H")
		res, err := fpga3d.MinimizeTimeCtx(ctx, in, *w, *h, opt)
		if err != nil {
			if isCtxErr(err) {
				exitPartial(optJSON(in, "spp", res), err)
			}
			log.Fatal(err)
		}
		finishObs()
		if *jsonOut {
			emitJSON(optJSON(in, "spp", res))
			break
		}
		fmt.Printf("%s on %dx%d: minimal time %d cycles (%v, lower bound %d, %d nodes, %v)\n",
			in.Name(), *w, *h, res.Value, res.Decision, res.LowerBound, res.Nodes,
			res.Elapsed.Round(time.Microsecond))
		if *anytime {
			fmt.Printf("anytime: best bound %d, gap %.3f\n", res.BestBound, res.Gap)
		}
		fmt.Printf("stages: %v\n", res.Stages)
		printPlacement(in, res.Placement, *showPlace, *showGantt)
		svgOut(res.Placement, fpga3d.Chip{W: *w, H: *h, T: res.Value})

	case "bmp":
		requireFlags(*tBudget > 0, "-T")
		res, err := fpga3d.MinimizeChipCtx(ctx, in, *tBudget, opt)
		if err != nil {
			if isCtxErr(err) {
				exitPartial(optJSON(in, "bmp", res), err)
			}
			log.Fatal(err)
		}
		finishObs()
		if *jsonOut {
			emitJSON(optJSON(in, "bmp", res))
			break
		}
		fmt.Printf("%s within T=%d: minimal chip %dx%d (%v, lower bound %d, %d nodes, %v)\n",
			in.Name(), *tBudget, res.Value, res.Value, res.Decision, res.LowerBound, res.Nodes,
			res.Elapsed.Round(time.Microsecond))
		fmt.Printf("stages: %v\n", res.Stages)
		printPlacement(in, res.Placement, *showPlace, *showGantt)
		svgOut(res.Placement, fpga3d.Chip{W: res.Value, H: res.Value, T: *tBudget})

	case "fixed":
		requireFlags(*w > 0 && *h > 0 && *tBudget > 0 && *startsArg != "", "-W, -H, -T and -starts")
		starts, err := parseStarts(*startsArg)
		if err != nil {
			log.Fatal(err)
		}
		chip := fpga3d.Chip{W: *w, H: *h, T: *tBudget}
		res, err := fpga3d.FixedScheduleCtx(ctx, in, chip, starts, opt)
		if err != nil {
			log.Fatal(err)
		}
		if res.DecidedBy == "canceled" && ctx.Err() != nil {
			exitPartial(feasJSON(in, "fixed", chip, res), ctx.Err())
		}
		finishObs()
		if *jsonOut {
			emitJSON(feasJSON(in, "fixed", chip, res))
			break
		}
		fmt.Printf("%s with fixed schedule on %v: %v (%d nodes, %v)\n",
			in.Name(), chip, res.Decision, res.Nodes, res.Elapsed.Round(time.Microsecond))
		printPlacement(in, res.Placement, *showPlace, *showGantt)
		svgOut(res.Placement, chip)

	case "pareto":
		pts, err := fpga3d.ParetoCtx(ctx, in, opt)
		if err != nil {
			if isCtxErr(err) {
				exitPartial(map[string]any{
					"instance": in.Name(), "mode": "pareto", "points": pts,
				}, err)
			}
			log.Fatal(err)
		}
		finishObs()
		if *jsonOut {
			emitJSON(map[string]any{"instance": in.Name(), "mode": "pareto", "points": pts})
			break
		}
		fmt.Printf("%s: Pareto-optimal (time, chip) points:\n", in.Name())
		for _, p := range pts {
			fmt.Printf("  T=%4d  chip %dx%d\n", p.T, p.H, p.H)
		}

	case "minarea":
		requireFlags(*tBudget > 0, "-T")
		res, err := fpga3d.MinimizeChipAreaCtx(ctx, in, *tBudget, opt)
		if err != nil {
			if isCtxErr(err) {
				exitPartial(map[string]any{
					"instance": in.Name(), "mode": "minarea",
					"decision": fpga3d.Unknown.String(),
				}, err)
			}
			log.Fatal(err)
		}
		finishObs()
		if *jsonOut {
			emitJSON(map[string]any{
				"instance": in.Name(), "mode": "minarea",
				"decision": res.Decision.String(), "W": res.W, "H": res.H, "area": res.Area,
				"stats": res.Stats, "placement": res.Placement,
			})
			break
		}
		fmt.Printf("%s within T=%d: minimal rectangle %dx%d (%d cells, %v)\n",
			in.Name(), *tBudget, res.W, res.H, res.Area, res.Decision)
		printPlacement(in, res.Placement, *showPlace, *showGantt)
		svgOut(res.Placement, fpga3d.Chip{W: res.W, H: res.H, T: *tBudget})

	case "multichip":
		requireFlags(*w > 0 && *h > 0 && *tBudget > 0, "-W, -H and -T")
		var res *fpga3d.MultiChipResult
		var err error
		if *chips > 0 {
			res, err = fpga3d.SolveMultiChipCtx(ctx, in, *w, *h, *tBudget, *chips, opt)
		} else {
			res, err = fpga3d.MinimizeChipsCtx(ctx, in, *w, *h, *tBudget, opt)
		}
		if err != nil {
			if isCtxErr(err) {
				exitPartial(map[string]any{
					"instance": in.Name(), "mode": "multichip",
					"decision": fpga3d.Unknown.String(),
				}, err)
			}
			log.Fatal(err)
		}
		if res.Decision == fpga3d.Unknown && ctx.Err() != nil {
			exitPartial(map[string]any{
				"instance": in.Name(), "mode": "multichip",
				"decision": res.Decision.String(), "chips": res.Chips, "stats": res.Stats,
			}, ctx.Err())
		}
		finishObs()
		if *jsonOut {
			emitJSON(map[string]any{
				"instance": in.Name(), "mode": "multichip",
				"decision": res.Decision.String(), "chips": res.Chips,
				"stats": res.Stats, "placement": res.Placement, "chip_of_task": res.Chip,
			})
			break
		}
		fmt.Printf("%s on %dx%d chips within T=%d: %v with %d chips\n",
			in.Name(), *w, *h, *tBudget, res.Decision, res.Chips)
		if res.Decision == fpga3d.Feasible {
			m := in.Model()
			for c := 0; c < res.Chips; c++ {
				fmt.Printf("  chip %d:", c)
				for i := range m.Tasks {
					if res.Chip[i] == c {
						fmt.Printf(" %s@(%d,%d)t%d", taskLabel(m.Tasks[i].Name, i),
							res.Placement.X[i], res.Placement.Y[i], res.Placement.S[i])
					}
				}
				fmt.Println()
			}
		}

	case "rotate":
		requireFlags(*w > 0 && *h > 0 && *tBudget > 0, "-W, -H and -T")
		chip := fpga3d.Chip{W: *w, H: *h, T: *tBudget}
		res, err := fpga3d.SolveWithRotationCtx(ctx, in, chip, opt)
		if err != nil {
			log.Fatal(err)
		}
		if res.DecidedBy == "canceled" && ctx.Err() != nil {
			exitPartial(map[string]any{
				"instance": in.Name(), "mode": "rotate",
				"decision": res.Decision.String(), "stats": res.Stats,
			}, ctx.Err())
		}
		finishObs()
		if *jsonOut {
			emitJSON(map[string]any{
				"instance": in.Name(), "mode": "rotate",
				"decision": res.Decision.String(), "rotations": res.Rotations,
				"stats": res.Stats, "placement": res.Placement,
			})
			break
		}
		fmt.Printf("%s on %v with rotation: %v\n", in.Name(), chip, res.Decision)
		if res.Decision == fpga3d.Feasible {
			rotated := 0
			for _, r := range res.Rotations {
				if r {
					rotated++
				}
			}
			fmt.Printf("rotated modules: %d\n", rotated)
			printPlacement(res.Oriented, res.Placement, *showPlace, *showGantt)
		}

	default:
		log.Fatalf("unknown mode %q (want opp, spp, bmp, fixed, pareto, minarea, multichip, rotate or tracestats)", *mode)
	}
}

// isCtxErr reports whether err stems from the -timeout context rather
// than from the solver itself.
func isCtxErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// setFlags returns the names of the flags explicitly set on the
// command line.
func setFlags() map[string]bool {
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

func flagWasSet(name string) bool { return setFlags()[name] }

// commonFlags are meaningful in every solving mode.
var commonFlags = map[string]bool{
	"instance": true, "builtin": true, "mode": true, "no-prec": true,
	"placement": true, "gantt": true, "svg": true, "reconfig": true,
	"node-limit": true, "time-limit": true, "workers": true, "timeout": true, "strategy": true, "anneal-seed": true,
	"progress": true, "trace": true, "metrics": true, "json": true, "log-format": true,
	"cpuprofile": true, "memprofile": true,
}

// modeFlags lists the mode-specific flags each mode accepts.
var modeFlags = map[string]map[string]bool{
	"opp":        {"W": true, "H": true, "T": true},
	"spp":        {"W": true, "H": true, "anytime": true},
	"bmp":        {"T": true},
	"fixed":      {"W": true, "H": true, "T": true, "starts": true},
	"pareto":     {},
	"minarea":    {"T": true},
	"multichip":  {"W": true, "H": true, "T": true, "chips": true},
	"rotate":     {"W": true, "H": true, "T": true},
	"tracestats": {"mode": true, "trace": true, "json": true},
}

// validateFlags rejects flag combinations that the chosen mode would
// silently ignore, before any solving starts.
func validateFlags(mode string, set map[string]bool) error {
	allowed, ok := modeFlags[mode]
	if !ok {
		return nil // unknown mode is reported by the main switch
	}
	var bad []string
	for name := range set {
		if mode == "tracestats" {
			if !allowed[name] {
				bad = append(bad, "-"+name)
			}
			continue
		}
		if !commonFlags[name] && !allowed[name] {
			bad = append(bad, "-"+name)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("%s not valid in mode=%s (run -help for per-mode flags)",
		strings.Join(bad, ", "), mode)
}

// applyLogFormat switches the diagnostic log output; "json" routes the
// log package's lines through a JSON slog handler on stderr so scripts
// capture structured diagnostics, "text" keeps the plain default.
func applyLogFormat(format string) error {
	switch format {
	case "", "text":
		return nil
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
		return nil
	}
	return fmt.Errorf("unknown -log-format %q (valid: text, json)", format)
}

// setupObs wires the -progress, -trace, -metrics, -cpuprofile and
// -memprofile flags into the solver options and opens the run's root
// span when tracing (every driver and stage span of the solve nests
// under it, connected by a fresh request ID). The returned context
// carries that span; the returned function flushes and closes the
// sinks. It is idempotent so it can run both before result printing
// (to get the progress line off the screen) and on the deferred path —
// and because exitPartial leaves via os.Exit, which skips defers, the
// profile writers hang off this hook rather than their own defer
// statements.
func setupObs(ctx context.Context, opt *fpga3d.Options, mode string, progress bool, tracePath, metricsAddr, cpuProfile, memProfile string) (context.Context, func(), error) {
	var done []func()
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return nil, nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, nil, err
		}
		done = append(done, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			return nil, nil, err
		}
		done = append(done, func() {
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
			f.Close()
		})
	}
	if progress {
		opt.Progress = fpga3d.ProgressPrinter(os.Stderr, 0)
		done = append(done, func() { fmt.Fprintln(os.Stderr) })
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, nil, err
		}
		tr := fpga3d.NewTracer(f)
		opt.Trace = tr
		ctx = fpga3d.ContextWithRequestID(ctx, fpga3d.NewRequestID())
		var runSpan *fpga3d.Span
		ctx, runSpan = fpga3d.StartSpan(ctx, tr, "run")
		runSpan.SetAttr("mode", mode)
		done = append(done, func() {
			runSpan.End()
			if err := tr.Err(); err != nil {
				log.Printf("trace: %v", err)
			}
			f.Close()
		})
	}
	if metricsAddr != "" {
		reg := fpga3d.NewMetrics()
		opt.Metrics = reg
		go func() {
			if err := http.ListenAndServe(metricsAddr, reg); err != nil {
				log.Printf("metrics: %v", err)
			}
		}()
	}
	ran := false
	return ctx, func() {
		if ran {
			return
		}
		ran = true
		for _, f := range done {
			f()
		}
	}, nil
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}

func feasJSON(in *fpga3d.Instance, mode string, chip fpga3d.Chip, res *fpga3d.Result) map[string]any {
	return map[string]any{
		"instance":   in.Name(),
		"mode":       mode,
		"chip":       map[string]int{"W": chip.W, "H": chip.H, "T": chip.T},
		"decision":   res.Decision.String(),
		"decided_by": res.DecidedBy,
		"nodes":      res.Nodes,
		"elapsed_ms": float64(res.Elapsed) / float64(time.Millisecond),
		"stages_ms":  stagesMSJSON(res.Stages),
		"stats":      res.Stats,
		"placement":  res.Placement,
	}
}

func optJSON(in *fpga3d.Instance, mode string, res *fpga3d.OptimizeResult) map[string]any {
	out := map[string]any{
		"instance":    in.Name(),
		"mode":        mode,
		"decision":    res.Decision.String(),
		"value":       res.Value,
		"lower_bound": res.LowerBound,
		"nodes":       res.Nodes,
		"elapsed_ms":  float64(res.Elapsed) / float64(time.Millisecond),
		"stages_ms":   stagesMSJSON(res.Stages),
		"stats":       res.Stats,
		"placement":   res.Placement,
	}
	if mode == "spp" {
		// Only MinimizeTime refines a (best_bound, gap) pair; gap 0 means
		// the value is proven optimal, positive means a partial result.
		out["best_bound"] = res.BestBound
		out["gap"] = res.Gap
	}
	return out
}

func stagesMSJSON(s fpga3d.StageTimings) map[string]float64 {
	out := map[string]float64{
		"bounds":    float64(s.Bounds) / float64(time.Millisecond),
		"heuristic": float64(s.Heuristic) / float64(time.Millisecond),
		"search":    float64(s.Search) / float64(time.Millisecond),
	}
	if s.Anneal > 0 {
		out["anneal"] = float64(s.Anneal) / float64(time.Millisecond)
	}
	return out
}

func taskLabel(name string, i int) string {
	if name != "" {
		return name
	}
	return fmt.Sprintf("task%d", i)
}

func loadInstance(path, builtin string) (*fpga3d.Instance, error) {
	switch {
	case path != "" && builtin != "":
		return nil, fmt.Errorf("use either -instance or -builtin, not both")
	case path != "":
		return fpga3d.LoadInstance(path)
	case builtin == "de":
		return fpga3d.BenchmarkDE(), nil
	case builtin == "videocodec":
		return fpga3d.BenchmarkVideoCodec(), nil
	case builtin != "":
		return nil, fmt.Errorf("unknown builtin %q (want de or videocodec)", builtin)
	default:
		return nil, fmt.Errorf("missing -instance file or -builtin name")
	}
}

func requireFlags(ok bool, what string) {
	if !ok {
		log.Fatalf("this mode needs %s", what)
	}
}

func parseStarts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad start time %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func printPlacement(in *fpga3d.Instance, p *fpga3d.Placement, table, gantt bool) {
	if p == nil {
		return
	}
	if table {
		fmt.Println()
		fmt.Print(p.Table(in.Model()))
	}
	if gantt {
		fmt.Println()
		fmt.Print(p.Gantt(in.Model()))
	}
	if !table && !gantt {
		return
	}
	os.Stdout.Sync()
}
