package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

// benchmarkDef is BENCHMARK.json: the command that runs the
// benchmark, its workloads, and the metrics with the bounds -compare
// judges by.
type benchmarkDef struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readBenchmarkDef reads BENCHMARK.json, rejecting unknown keys.
func readBenchmarkDef(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// runCompare implements -compare A1.json … -- B1.json …: the reports
// are paired in order, A1 with B1 and so on, and each pair is meant to
// be run back to back, alternating which side runs first, so that both
// runs of a pair see the same host. For every (workload, end-to-end
// metric) it prints each side's median and quartiles, the median
// change of B over A across the pairs, and a verdict judged against
// the metric's bound. It exits 1 when any verdict is "worse".
func runCompare(args []string, defPath string, stdout, stderr io.Writer) int {
	var a, b []string
	sep := -1
	for i, arg := range args {
		if arg == "--" {
			sep = i
			break
		}
	}
	if sep >= 0 {
		a, b = args[:sep], args[sep+1:]
	}
	if len(a) == 0 || len(a) != len(b) {
		fmt.Fprintln(stderr, "fpgaperf: usage: fpgaperf -compare A1.json … An.json -- B1.json … Bn.json (n pairs, run alternately)")
		return 2
	}
	def, err := readBenchmarkDef(defPath)
	if err != nil {
		fmt.Fprintf(stderr, "fpgaperf: %v\n", err)
		return 2
	}
	sideA, err := loadReports(a)
	if err != nil {
		fmt.Fprintf(stderr, "fpgaperf: %v\n", err)
		return 2
	}
	sideB, err := loadReports(b)
	if err != nil {
		fmt.Fprintf(stderr, "fpgaperf: %v\n", err)
		return 2
	}
	var names []string
	for w := range sideA[0] {
		names = append(names, w)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	worse := false
	for _, w := range names {
		for _, m := range def.EndToEnd {
			va, vb := pairs(sideA, sideB, w, m.Name)
			if len(va) == 0 {
				continue
			}
			c := judge(va, vb, m.Better == "higher", m.Bound)
			worse = worse || c.verdict == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n", w, m.Name,
				quartileString(va), quartileString(vb), 100*c.change, 100*m.Bound, c.verdict)
		}
		// Failed answers have no bound: any in B is a regression.
		ea, eb := pairs(sideA, sideB, w, "error_frac")
		if len(ea) == 0 {
			continue
		}
		verdict := "unchanged"
		if slices.Max(eb) > 0 {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(tw, "%s\terror_frac\t%s\t%s\t\tmust stay 0\t%s\n", w, quartileString(ea), quartileString(eb), verdict)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "fpgaperf: %v\n", err)
		return 2
	}
	if worse {
		return 1
	}
	return 0
}

// runValues is one -out report's values by workload and metric, with
// error_frac alongside the end-to-end metrics.
type runValues map[string]map[string]float64

// loadReports reads -out reports, one runValues per report.
func loadReports(paths []string) ([]runValues, error) {
	var out []runValues
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rep.Schema != reportSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", p, rep.Schema, reportSchema)
		}
		v := runValues{}
		for _, w := range rep.Workloads {
			v[w.Workload] = map[string]float64{"error_frac": w.ErrorFrac}
			for k, x := range w.Metrics {
				v[w.Workload][k] = x
			}
		}
		out = append(out, v)
	}
	return out, nil
}

// pairs returns one metric's values over the pairs whose both reports
// have it, A's and B's in matching order.
func pairs(a, b []runValues, workload, metric string) (va, vb []float64) {
	for i := range a {
		x, okA := a[i][workload][metric]
		y, okB := b[i][workload][metric]
		if okA && okB {
			va, vb = append(va, x), append(vb, y)
		}
	}
	return va, vb
}

// comparison is one (workload, metric) verdict. change is the median
// over the pairs of B relative to A, signed so that positive is better.
type comparison struct {
	change  float64
	verdict string
}

// judge compares paired runs of one metric, a[i] with b[i]. The change
// is the median over the pairs of the ratio b/a, which cancels what the
// host did to both runs of a pair. The noise is the smaller of two
// spreads (quartile distance over median): the sides' own, which holds
// when the host varied independently from run to run, and the ratios',
// which holds when it drifted under both runs of a pair alike.
//
//   - unresolved: the noise exceeds the bound, unless every B run reads
//     better (or every one worse) than every A run;
//   - worse: the median change is worse than the bound;
//   - better: over at least ten pairs, B wins nine in ten (ties count
//     for neither) and the median change exceeds the spread of A's
//     runs; fewer pairs win by chance too often;
//   - unchanged: otherwise.
func judge(a, b []float64, higherIsBetter bool, bound float64) comparison {
	ratios := make([]float64, len(a))
	wins := 0
	for i := range a {
		ratios[i] = ratio(b[i], a[i])
		if (higherIsBetter && b[i] > a[i]) || (!higherIsBetter && b[i] < a[i]) {
			wins++
		}
	}
	c := comparison{change: median(ratios) - 1}
	if !higherIsBetter {
		c.change = -c.change
	}
	noise := min(max(spreadOf(a), spreadOf(b)), spreadOf(ratios))
	switch {
	case allBeyond(a, b, higherIsBetter) && c.change > 0:
		c.verdict = "better"
	case allBeyond(a, b, !higherIsBetter) && c.change < -bound:
		c.verdict = "worse"
	case noise > bound:
		c.verdict = "unresolved"
	case c.change < -bound:
		c.verdict = "worse"
	case len(a) >= 10 && 10*wins >= 9*len(a) && c.change > spreadOf(a):
		c.verdict = "better"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// allBeyond reports whether every b reads strictly past every a in the
// given direction (higher when up is true).
func allBeyond(a, b []float64, up bool) bool {
	if up {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// spreadOf is the distance between the quartiles as a share of the
// median.
func spreadOf(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}

func quartileString(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (n=%d)", median(xs), q1, q3, len(xs))
}
