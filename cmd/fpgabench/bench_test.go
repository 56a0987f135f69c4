package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fpga3d/internal/benchgate"
	"fpga3d/internal/core"
	"fpga3d/internal/solver"
)

func sampleReport() *Report {
	return &Report{
		Schema:    ReportSchema,
		Generated: "2026-08-06T00:00:00Z",
		Env:       benchgate.Stamp(),
		Runs:      3,
		Entries: []Entry{
			{Name: "de/opp/32x32x6", Kind: "opp", Status: "feasible", Nodes: 85, Propagations: 253},
			{Name: "hls/biquad3/17x17", Kind: "mintime", Status: "feasible", Value: 31, Nodes: 1595, Propagations: 13270},
		},
	}
}

// perturbEach changes one field of one entry at a time — every field of
// every entry in turn — and requires the exact diff to report exactly
// that entry, and nothing else. The entry struct is the gate's
// declaration, so a field this misses is a field the gate misses.
func perturbEach[E any](t *testing.T, sample func() *benchgate.Report[E]) {
	t.Helper()
	base := sample()
	for i := range base.Entries {
		typ := reflect.TypeOf(base.Entries[i])
		for f := 0; f < typ.NumField(); f++ {
			cur := sample()
			v := reflect.ValueOf(&cur.Entries[i]).Elem().Field(f)
			switch v.Kind() {
			case reflect.String:
				v.SetString(v.String() + "~")
			case reflect.Int, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Float64:
				v.SetFloat(v.Float() + 0.5)
			default:
				t.Fatalf("%s: no perturbation for a %s field", typ.Field(f).Name, v.Kind())
			}
			msgs := benchgate.Diff(base, cur)
			want := base.Entries[i]
			name := reflect.ValueOf(want).FieldByName("Name").String()
			if len(msgs) != 1 || !strings.HasPrefix(msgs[0], name+":") {
				t.Errorf("entry %s, field %s perturbed: msgs = %v, want one naming the entry",
					name, typ.Field(f).Name, msgs)
			}
		}
	}
}

// otherMachine restamps a report as if recorded elsewhere: another
// host, scheduler width, date and repetition count. None of these may
// change what the exact diff reports.
func otherMachine[E any](r *benchgate.Report[E]) *benchgate.Report[E] {
	r.Env = benchgate.Env{GoOS: "plan9", GoArch: "arm64", CPU: "slow", GoMaxProcs: 64, GoVersion: "go0"}
	r.Generated = "1999-01-01T00:00:00Z"
	r.Runs++
	return r
}

// TestReportRoundTrip: a report written to disk reloads identically and
// diffs clean against itself.
func TestReportRoundTrip(t *testing.T) {
	r := sampleReport()
	path := filepath.Join(t.TempDir(), "report.json")
	if err := benchgate.Write(r, path); err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := benchgate.Read(path, ReportSchema, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, &got) {
		t.Fatalf("round trip changed the report:\nwrote %+v\nread  %+v", r, got)
	}
	if msgs := benchgate.Diff(r, &got); len(msgs) != 0 {
		t.Fatalf("self-diff not clean: %v", msgs)
	}
}

func TestReadReportRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	r := sampleReport()
	r.Schema = "fpgabench/v1"
	if err := benchgate.Write(r, path); err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := benchgate.Read(path, ReportSchema, &got); err == nil {
		t.Fatal("wrong schema accepted")
	}
	// A field the entry does not declare — a timing field in an old
	// baseline — is refused too, not silently dropped.
	if err := os.WriteFile(path, []byte(`{"schema": "`+ReportSchema+`", "entries": [{"name": "x", "wall_ns": 5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := benchgate.Read(path, ReportSchema, &got); err == nil {
		t.Fatal("undeclared field accepted")
	}
}

// TestDiffReportsRegressions exercises every regression class the gate
// can raise: drift in any field of any entry, and vanished cases.
func TestDiffReportsRegressions(t *testing.T) {
	base := sampleReport()

	t.Run("every field", func(t *testing.T) { perturbEach(t, sampleReport) })
	t.Run("slowdown under floor ignored", func(t *testing.T) {
		// Between a fast and a slow machine only the report's stamp
		// differs, and the gate must not read it.
		if msgs := benchgate.Diff(base, otherMachine(sampleReport())); len(msgs) != 0 {
			t.Fatalf("machine stamp gated: %v", msgs)
		}
	})
	t.Run("node drift", func(t *testing.T) {
		cur := sampleReport()
		cur.Entries[0].Nodes++
		msgs := benchgate.Diff(base, cur)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "nodes 86, baseline 85") {
			t.Fatalf("msgs = %v", msgs)
		}
	})
	t.Run("propagation drift", func(t *testing.T) {
		cur := sampleReport()
		cur.Entries[0].Propagations--
		msgs := benchgate.Diff(base, cur)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "propagations 252, baseline 253") {
			t.Fatalf("msgs = %v", msgs)
		}
	})
	t.Run("changed answer", func(t *testing.T) {
		cur := sampleReport()
		cur.Entries[0].Status = "infeasible"
		msgs := benchgate.Diff(base, cur)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "status infeasible, baseline feasible") {
			t.Fatalf("msgs = %v", msgs)
		}
	})
	t.Run("missing case in full run", func(t *testing.T) {
		cur := sampleReport()
		cur.Entries = cur.Entries[:1]
		msgs := benchgate.Diff(base, cur)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "not in this run") {
			t.Fatalf("msgs = %v", msgs)
		}
	})
	t.Run("missing case tolerated in quick run", func(t *testing.T) {
		cur := sampleReport()
		cur.Entries = cur.Entries[:1]
		cur.Quick = true
		if msgs := benchgate.Diff(base, cur); len(msgs) != 0 {
			t.Fatalf("quick run flagged for subsetting: %v", msgs)
		}
	})
}

// TestRunQuickEndToEnd drives the real binary entry point over the
// quick subset: the report must be written and well-formed, a self
// baseline must pass, and a baseline with a tampered node count must
// trip exit code 2.
func TestRunQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick benchmark subset")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "report.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-runs", "1", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var rep Report
	if err := benchgate.Read(out, ReportSchema, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) == 0 || !rep.Quick {
		t.Fatalf("bad report: %+v", rep)
	}

	// Self-comparison passes.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-quick", "-runs", "1", "-baseline", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("self baseline: exit %d, stderr: %s", code, stderr.String())
	}

	// A baseline claiming one node more on its last case is drift the
	// exact gate must catch: exit code 2, naming that case.
	tampered := filepath.Join(dir, "tampered.json")
	bad := rep
	bad.Entries = append([]Entry(nil), rep.Entries...)
	last := &bad.Entries[len(bad.Entries)-1]
	last.Nodes++
	if err := benchgate.Write(&bad, tampered); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-quick", "-runs", "1", "-baseline", tampered}, &stdout, &stderr); code != 2 {
		t.Fatalf("tampered baseline: exit %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), last.Name+": nodes") {
		t.Fatalf("stderr missing regression message: %s", stderr.String())
	}
}

// TestPooledRepetitionsCompareDecidedAnswers checks the answer gate of
// -runs and -compare-parallel: sequential runs must repeat exactly,
// while under an intra-probe pool node counts may differ and a
// node-capped case that runs out of nodes on one side only is not a
// changed answer.
func TestPooledRepetitionsCompareDecidedAnswers(t *testing.T) {
	for _, q := range []struct {
		name     string
		statuses []string
		workers  int
		wantErr  bool
	}{
		{"sequential repeats", []string{"feasible", "feasible"}, 1, false},
		{"sequential unknown then decided", []string{"unknown", "feasible"}, 1, true},
		{"pooled unknown then decided", []string{"unknown", "feasible"}, 4, false},
		{"pooled decided then unknown", []string{"feasible", "unknown", "feasible"}, 4, false},
		{"pooled changed answer", []string{"feasible", "infeasible"}, 4, true},
		{"pooled changed answer after unknown", []string{"unknown", "feasible", "infeasible"}, 4, true},
	} {
		t.Run(q.name, func(t *testing.T) {
			r := 0
			c := benchCase{name: "codec/opp/64x64x59", kind: "opp", run: func(solver.Options) (string, int, core.Stats, error) {
				r++
				nodes := int64(5_000)
				if q.workers > 1 {
					nodes += int64(r) // sum of shards, scheduling-dependent
				}
				return q.statuses[r-1], 0, core.Stats{Nodes: nodes}, nil
			}}
			_, err := measureCase(c, solver.Options{Workers: q.workers}, len(q.statuses))
			if (err != nil) != q.wantErr {
				t.Fatalf("measureCase error %v, want error %v", err, q.wantErr)
			}
			// -compare-parallel compares the pooled answer with the
			// sequential one by the same rule.
			seq, pooled := Entry{Status: q.statuses[0]}, Entry{Status: q.statuses[1]}
			if q.workers > 1 && len(q.statuses) == 2 && sameAnswer(pooled, seq, true) == q.wantErr {
				t.Fatalf("sameAnswer(%s, %s) = %v", pooled.Status, seq.Status, !q.wantErr)
			}
		})
	}
}

// TestSuiteNamesUniqueAndListed guards the case table: names must be
// unique (they key the baseline diff) and -list must print each one.
func TestSuiteNamesUniqueAndListed(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range suite() {
		if seen[c.name] {
			t.Fatalf("duplicate case name %q", c.name)
		}
		seen[c.name] = true
		if c.kind != "opp" && c.kind != "mintime" && c.kind != "minbase" {
			t.Fatalf("%s: unknown kind %q", c.name, c.kind)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	for name := range seen {
		if !strings.Contains(stdout.String(), name) {
			t.Fatalf("-list missing %q", name)
		}
	}
}

// TestCommittedBaselineParses keeps the committed BENCH_core.json
// loadable and schema-current, with every suite case present — the
// contract the CI bench gate depends on.
func TestCommittedBaselineParses(t *testing.T) {
	var rep Report
	if err := benchgate.Read("../../BENCH_core.json", ReportSchema, &rep); err != nil {
		t.Fatal(err)
	}
	byName := map[string]Entry{}
	for _, e := range rep.Entries {
		byName[e.Name] = e
	}
	for _, c := range suite() {
		if _, ok := byName[c.name]; !ok {
			t.Errorf("baseline missing case %q — refresh BENCH_core.json (see BENCHMARKS.md)", c.name)
		}
	}
}
