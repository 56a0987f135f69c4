package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func readBenchmarkFile(t *testing.T) *benchmarkDef {
	t.Helper()
	b, err := readBenchmarkDef(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogMatchesBenchmarkFile pins the metric and workload lists
// the program emits to the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, fpgaperf %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, fpgaperf %q", i, w.Name, workloads[i].name)
		}
	}
	var bound float64
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, fpgaperf %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: BENCHMARK.json %s/%s/%s, fpgaperf %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Name != "setup_s" {
			bound = max(bound, m.Bound)
		}
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound < bound {
			t.Errorf("setup_s bound %g is below another metric's %g", m.Bound, bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, fpgaperf %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %s/%s/%s, fpgaperf %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

// TestAllWorkloadsShort runs every workload briefly, traced, and checks
// that every declared metric is printed with its unit for every
// workload, that no answer failed its check, that the span trees are
// connected and that the layers account for the question wall time.
func TestAllWorkloadsShort(t *testing.T) {
	b := readBenchmarkFile(t)
	dir := t.TempDir()
	out, spansPath := filepath.Join(dir, "r.json"), filepath.Join(dir, "spans.jsonl")
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run([]string{"-seed", "3", "-seconds", "0.3", "-trace", "1", "-out", out, "-spans", spansPath}, &stdout, &stderr)
	t.Logf("all workloads, traced: %v", time.Since(start))
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}

	units := map[[2]string]string{}
	sc := bufio.NewScanner(&stdout)
	var last string
	for sc.Scan() {
		line := sc.Text()
		last = line
		f := strings.Fields(line)
		if len(f) < 4 || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "{") {
			continue
		}
		units[[2]string{f[0], f[1]}] = f[3]
	}
	for _, w := range b.Workloads {
		for _, m := range b.EndToEnd {
			if got := units[[2]string{w.Name, m.Name}]; got != m.Unit {
				t.Errorf("%s %s: unit %q, want %q", w.Name, m.Name, got, m.Unit)
			}
		}
		for _, m := range b.PerLayer {
			if got := units[[2]string{w.Name, m.Name}]; got != m.Unit {
				t.Errorf("%s %s: unit %q, want %q", w.Name, m.Name, got, m.Unit)
			}
		}
	}

	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
		t.Errorf("result line: correct %v, %d of %d failed", line.Correct, line.Failed, line.Attempted)
	}
	if want := len(b.Workloads) * len(b.PerLayer); len(line.Metrics) != want {
		t.Errorf("traced result line has %d metrics, want %d", len(line.Metrics), want)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Workloads {
		if w.ErrorFrac != 0 {
			t.Errorf("%s: error_frac %g: %v", w.Workload, w.ErrorFrac, w.Failures)
		}
		for k, v := range w.Metrics {
			if v <= 0 {
				t.Errorf("%s: end-to-end %s = %g, want > 0", w.Workload, k, v)
			}
		}
		if _, ok := w.PerLayer["trace.overhead_frac"]; !ok {
			t.Errorf("%s: no trace.overhead_frac", w.Workload)
		}
		if w.Workload == "paper-sweeps" || w.Workload == "search-frontier" {
			if got := w.PerLayer["trace.self_sum_frac"]; got < 0.95 {
				t.Errorf("%s: layer self times cover %.3f of question wall time, want ≥ 0.95", w.Workload, got)
			}
		}
	}

	f, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byWorkload := map[string][]span{}
	dec := json.NewDecoder(f)
	for dec.More() {
		var sp span
		if err := dec.Decode(&sp); err != nil {
			t.Fatal(err)
		}
		byWorkload[sp.Workload] = append(byWorkload[sp.Workload], sp)
	}
	for _, w := range b.Workloads {
		spans := byWorkload[w.Name]
		if len(spans) == 0 {
			t.Errorf("%s: no spans written", w.Name)
			continue
		}
		if _, err := foldSpans(spans); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

// TestCorruptAnswerCounted damages every witness before it is checked
// and expects the failures to be counted.
func TestCorruptAnswerCounted(t *testing.T) {
	sel, err := selectWorkloads("paper-sweeps")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := measureWorkload(sel[0], options{seed: 1, seconds: 0.1, corrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.ErrorFrac == 0 {
		t.Errorf("corrupted witnesses passed: %d of %d failed", res.Failed, res.Attempted)
	}
}

// TestFoldSpans checks self time, connectivity and the sum check on
// hand-built trees.
func TestFoldSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op.q", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "model.decode", Start: 0, End: 10},
		{ID: 3, Parent: 1, Op: 1, Name: "solver.min_time", Start: 10, End: 95},
		{ID: 4, Parent: 3, Op: 1, Name: "bounds", Start: 10, End: 40},
		{ID: 5, Parent: 3, Op: 1, Name: "heur.greedy", Start: 40, End: 60},
		// Checking the answer is outside the timed window: it counts
		// toward neither the operations' wall time nor the layers'.
		{ID: 6, Op: 6, Name: "check", Start: 100, End: 200},
		{ID: 7, Parent: 6, Op: 6, Name: "model.verify", Start: 100, End: 200},
	}
	f, err := foldSpans(spans)
	if err != nil {
		t.Fatal(err)
	}
	if f.wall != 100 || f.self["op.q"] != 5 || f.self["solver.min_time"] != 35 || f.self["model.verify"] != 100 {
		t.Errorf("wall %d, op self %d, solver self %d, verify self %d; want 100, 5, 35, 100",
			f.wall, f.self["op.q"], f.self["solver.min_time"], f.self["model.verify"])
	}
	if got := f.layerFrac(); got != 0.95 {
		t.Errorf("layer share %g, want 0.95", got)
	}
	if err := f.checkSum(); err != nil {
		t.Errorf("sum check failed at 0.95: %v", err)
	}

	// A second operation whose root spends 10 of its 100 ns outside
	// any layer pulls the share to 185/200 and fails the sum check.
	spans = append(spans,
		span{ID: 8, Op: 8, Name: "op.q", Start: 300, End: 400},
		span{ID: 9, Parent: 8, Op: 8, Name: "model.decode", Start: 300, End: 310},
		span{ID: 10, Parent: 8, Op: 8, Name: "solver.min_time", Start: 320, End: 400},
	)
	if f, err = foldSpans(spans); err != nil {
		t.Fatal(err)
	}
	if got := f.layerFrac(); got != 0.925 {
		t.Errorf("layer share %g, want 0.925", got)
	}
	if err := f.checkSum(); err == nil {
		t.Error("sum check passed with 7.5% of operation wall time outside the layers")
	}

	spans = append(spans, span{ID: 11, Parent: 99, Op: 1, Name: "lost"})
	if _, err := foldSpans(spans); err == nil {
		t.Error("a span with a missing parent folded without error")
	}
}

// TestJudge pins the -compare verdicts on paired runs.
func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", base, []float64{100, 99, 101, 100, 100}, true, "unchanged"},
		{"faster", base, []float64{120, 121, 119, 122, 120}, true, "better"},
		{"slower", base, []float64{80, 81, 79, 80, 82}, true, "worse"},
		{"latency up", base, []float64{120, 121, 119, 122, 120}, false, "worse"},
		{"noisy", base, []float64{60, 140, 100, 70, 130}, true, "unresolved"},
		// The host slows and speeds up between pairs, but both runs of
		// each pair see the same host: the ratios cancel the drift.
		{"shared drift", []float64{100, 70, 130, 85, 115}, []float64{101, 70, 129, 86, 115}, true, "unchanged"},
		{"loss under drift", []float64{100, 70, 130, 85, 115}, []float64{85, 60, 110, 72, 98}, true, "worse"},
		// Five pairs all go one way by chance one time in 32.
		{"lucky pairs", []float64{100, 96, 104, 98, 102}, []float64{106, 97, 105, 99, 103}, true, "unchanged"},
		{"gain in nine of ten pairs", []float64{100, 90, 110, 95, 105, 100, 92, 108, 97, 103},
			[]float64{112, 102, 124, 107, 118, 99, 104, 121, 109, 116}, true, "better"},
		{"gain within A's spread", []float64{100, 90, 110, 95, 105, 100, 92, 108, 97, 103},
			[]float64{104, 94, 115, 99, 109, 99, 96, 112, 101, 107}, true, "unchanged"},
	} {
		if got := judge(c.a, c.b, c.higher, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
