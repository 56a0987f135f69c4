// Command fpgaperf is the repository's benchmark: it times calls into
// every layer's public functions — model decoding and verification,
// the solver's optimization drivers, the fpgad server over loopback
// HTTP, and online placement sessions — over five workloads, checks
// every answer, and prints each end-to-end metric by name with its
// unit. Times are scaled to a nominal host by a reference kernel timed
// alongside the workload (host.go). With -trace 1 it runs each workload
// a second time with spans recorded around every call into a layer and
// prints the per-layer metrics instead. See README.md for the
// workloads, the metrics and how to compare two commits.
//
// Usage:
//
//	fpgaperf [-workload a,b] [-seed n] [-seconds s] [-trace 0|1]
//	         [-spans spans.jsonl] [-out r.json]
//	fpgaperf -compare A1.json … An.json -- B1.json … Bn.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 0 when
// every answer checked out, 1 when any check failed, 2 on a usage or
// set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupRuns is how many times each workload is set up per run;
// setup_s is the median.
const setupRuns = 11

// defaultSeconds is the measured time per workload and run.
const defaultSeconds = 15

// options is one parsed invocation.
type options struct {
	workloads []workload
	seed      int64
	seconds   float64
	trace     bool
	corrupt   bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fpgaperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names    = fs.String("workload", "", "comma-separated workloads to run (default: all)")
		seed     = fs.Int64("seed", 1, "input seed; equal seeds give equal inputs")
		seconds  = fs.Float64("seconds", defaultSeconds, "measured seconds per workload")
		trace    = fs.Int("trace", 0, "1 runs each workload twice, the second time traced, and reports per-layer metrics")
		spans    = fs.String("spans", "", "with -trace 1, write the recorded spans here as JSON lines")
		out      = fs.String("out", "", "write the full report here as JSON")
		compare  = fs.Bool("compare", false, "compare report sets: -compare A*.json -- B*.json")
		benchDef = fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds -compare judges by")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), *benchDef, stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fpgaperf: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "fpgaperf: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "fpgaperf: -seconds must be positive")
		return 2
	}
	sel, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintf(stderr, "fpgaperf: %v\n", err)
		return 2
	}
	opt := options{workloads: sel, seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep, allSpans, err := runAll(opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "fpgaperf: %v\n", err)
		return 2
	}
	for _, w := range rep.Workloads {
		for _, m := range w.Failures {
			fmt.Fprintf(stderr, "fpgaperf: %s: FAILED: %s\n", w.Workload, m)
		}
	}
	if *out != "" {
		if err := writeJSONFile(*out, rep); err != nil {
			fmt.Fprintf(stderr, "fpgaperf: writing report: %v\n", err)
			return 2
		}
	}
	if *spans != "" {
		if err := writeSpansFile(*spans, allSpans); err != nil {
			fmt.Fprintf(stderr, "fpgaperf: writing spans: %v\n", err)
			return 2
		}
	}
	line, err := resultLine(rep)
	if err != nil {
		fmt.Fprintf(stderr, "fpgaperf: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, line)
	if !rep.correct() {
		return 1
	}
	return 0
}

// selectWorkloads resolves -workload.
func selectWorkloads(names string) ([]workload, error) {
	if names == "" {
		return workloads, nil
	}
	var out []workload
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range workloads {
			if w.name == n {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			var all []string
			for _, w := range workloads {
				all = append(all, w.name)
			}
			return nil, fmt.Errorf("unknown workload %q (valid: %s)", n, strings.Join(all, ", "))
		}
	}
	return out, nil
}

// report is the full record of one invocation (-out).
type report struct {
	Schema    string           `json:"schema"`
	Env       env              `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadResult `json:"workloads"`
}

// reportSchema stamps -out reports.
const reportSchema = "fpgaperf/v1"

// workloadResult is one workload's outcome. Metrics holds every
// end-to-end metric (measured untraced); PerLayer the traced run's
// numbers when -trace 1.
type workloadResult struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	ErrorFrac float64            `json:"error_frac"`
	Metrics   map[string]float64 `json:"metrics"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
}

func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return false
		}
	}
	return true
}

// runAll measures every selected workload, printing one
// "workload metric value unit" line per metric as it goes.
func runAll(opt options, stdout io.Writer) (*report, []span, error) {
	rep := &report{Schema: reportSchema, Env: envStamp(opt.seed), Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace}
	fmt.Fprintf(stdout, "# %s\n", rep.Env)
	var all []span
	for _, w := range opt.workloads {
		res, spans, err := measureWorkload(w, opt)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		all = append(all, spans...)
		rep.Workloads = append(rep.Workloads, *res)
		for _, n := range res.Notes {
			fmt.Fprintf(stdout, "# %s: %s\n", w.name, n)
		}
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, "%s %s %.6g %s\n", w.name, d.name, res.Metrics[d.name], d.unit)
		}
		if opt.trace {
			for _, d := range perLayer {
				fmt.Fprintf(stdout, "%s %s %.6g %s\n", w.name, d.name, res.PerLayer[d.name], d.unit)
			}
		}
		fmt.Fprintf(stdout, "%s error_frac %.6g frac (%d of %d failed)\n", w.name, res.ErrorFrac, res.Failed, res.Attempted)
	}
	return rep, all, nil
}

// measureWorkload sets a workload up setupRuns times (setup_s is the
// median, scaled to the nominal host), then measures it: once
// untraced, and with -trace 1 a second time traced, each for half the
// time.
func measureWorkload(w workload, opt options) (*workloadResult, []span, error) {
	cfg := config{seed: opt.seed, corrupt: opt.corrupt}
	var setups []float64
	var r runner
	g := &hostGauge{}
	for i := 0; i < setupRuns; i++ {
		g.sample()
		f := g.factor()
		t0 := time.Now()
		x, err := w.setup(cfg)
		if err != nil {
			if r != nil {
				r.close()
			}
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, scaled(time.Since(t0), f).Seconds())
		if r != nil {
			r.close()
		}
		r = x
	}
	defer r.close()

	d := time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		d /= 2
	}
	m, err := r.run(d, nil)
	if err != nil {
		return nil, nil, err
	}
	res := &workloadResult{Workload: w.name, Metrics: map[string]float64{"setup_s": median(setups)}}
	for k, v := range m.e2e {
		res.Metrics[k] = v
	}
	chk := m.chk
	res.Notes = m.notes
	var spans []span
	if opt.trace {
		rec := newRecorder(w.name)
		mt, err := r.run(d, rec)
		if err != nil {
			return nil, nil, err
		}
		chk.add(mt.chk)
		if m.digest != "" && mt.digest != "" && m.digest != mt.digest {
			chk.fail(fmt.Errorf("answer digest differs between the untraced and traced run"))
		}
		res.PerLayer = map[string]float64{}
		for _, def := range perLayer {
			res.PerLayer[def.name] = mt.layer[def.name]
		}
		res.PerLayer["trace.overhead_frac"] = ratio(m.e2e["ops_per_s"], mt.e2e["ops_per_s"]) - 1
		spans = mt.spans
	}
	res.Attempted, res.Failed, res.Failures = chk.attempted, chk.failed, chk.msgs
	res.ErrorFrac = ratio(float64(chk.failed), float64(chk.attempted))
	for k, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("metric %s is not a number", k)
		}
	}
	return res, spans, nil
}

// resultLine renders the final stdout line: with one workload the
// metrics are keyed by name, with several by workload/name.
func resultLine(rep *report) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: rep.correct(), Metrics: map[string]val{}}
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	for _, w := range rep.Workloads {
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		src := w.Metrics
		if rep.Trace {
			src = w.PerLayer
		}
		for _, d := range defs {
			key := d.name
			if len(rep.Workloads) > 1 {
				key = w.Workload + "/" + d.name
			}
			line.Metrics[key] = val{Value: src[d.name], Unit: d.unit}
		}
	}
	b, err := json.Marshal(line)
	return string(b), err
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeSpansFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
