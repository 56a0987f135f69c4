package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fpga3d/internal/benchgate"
)

func sampleAnytimeReport() *AnytimeReport {
	return &AnytimeReport{
		Schema:    AnytimeReportSchema,
		Generated: "2026-08-08T00:00:00Z",
		Env:       benchgate.Stamp(),
		Runs:      3,
		Entries: []AnytimeEntry{
			{Name: "de/anytime/17x17", Status: "feasible", Value: 13, LowerBound: 13},
			{Name: "de/anytime/33x16", Status: "feasible", Value: 8, LowerBound: 7},
		},
	}
}

func TestAnytimeReportRoundTrip(t *testing.T) {
	r := sampleAnytimeReport()
	path := filepath.Join(t.TempDir(), "anytime.json")
	if err := benchgate.Write(r, path); err != nil {
		t.Fatal(err)
	}
	var got AnytimeReport
	if err := benchgate.Read(path, AnytimeReportSchema, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, &got) {
		t.Fatalf("round trip changed the report:\nwrote %+v\nread  %+v", r, got)
	}
	if msgs := benchgate.Diff(r, &got); len(msgs) != 0 {
		t.Fatalf("self-diff not clean: %v", msgs)
	}

	r.Schema = "fpgabench/anytime/v1"
	if err := benchgate.Write(r, path); err != nil {
		t.Fatal(err)
	}
	if err := benchgate.Read(path, AnytimeReportSchema, &got); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// TestDiffAnytimeRegressions exercises each class the anytime gate can
// raise: drift in any field of any entry (the answer, its lower bound,
// the final gap), and vanished cases.
func TestDiffAnytimeRegressions(t *testing.T) {
	base := sampleAnytimeReport()

	t.Run("every field", func(t *testing.T) { perturbEach(t, sampleAnytimeReport) })
	t.Run("gap regression past slack", func(t *testing.T) {
		// The final gap is exact: any gap above the proven 0 is a
		// regression, with no slack.
		cur := sampleAnytimeReport()
		cur.Entries[1].FinalGap = 0.01
		msgs := benchgate.Diff(base, cur)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "final_gap 0.01, baseline 0") {
			t.Fatalf("msgs = %v", msgs)
		}
	})
	t.Run("gap noise under slack ignored", func(t *testing.T) {
		// What may differ between runs on different hosts is the
		// machine stamp alone, and the gate does not read it.
		if msgs := benchgate.Diff(base, otherMachine(sampleAnytimeReport())); len(msgs) != 0 {
			t.Fatalf("machine stamp gated: %v", msgs)
		}
	})
	t.Run("micro wall noise under floor ignored", func(t *testing.T) {
		// A quick rerun of the same suite on another host: the subset
		// and the stamp differ, the exact fields do not.
		cur := otherMachine(sampleAnytimeReport())
		cur.Quick = true
		cur.Entries = cur.Entries[1:]
		if msgs := benchgate.Diff(base, cur); len(msgs) != 0 {
			t.Fatalf("quick rerun elsewhere flagged: %v", msgs)
		}
	})
	t.Run("answer drift", func(t *testing.T) {
		cur := sampleAnytimeReport()
		cur.Entries[0].Value++
		msgs := benchgate.Diff(base, cur)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "value 14, baseline 13") {
			t.Fatalf("msgs = %v", msgs)
		}
	})
	t.Run("lower bound drift", func(t *testing.T) {
		cur := sampleAnytimeReport()
		cur.Entries[1].LowerBound--
		msgs := benchgate.Diff(base, cur)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "lower_bound 6, baseline 7") {
			t.Fatalf("msgs = %v", msgs)
		}
	})
	t.Run("missing case in full run", func(t *testing.T) {
		cur := sampleAnytimeReport()
		cur.Entries = cur.Entries[:1]
		msgs := benchgate.Diff(base, cur)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "not in this run") {
			t.Fatalf("msgs = %v", msgs)
		}
	})
	t.Run("missing case tolerated in quick run", func(t *testing.T) {
		cur := sampleAnytimeReport()
		cur.Entries = cur.Entries[:1]
		cur.Quick = true
		if msgs := benchgate.Diff(base, cur); len(msgs) != 0 {
			t.Fatalf("quick run flagged for subsetting: %v", msgs)
		}
	})
}

// TestRunAnytimeQuick runs the real quick subset end to end: every
// case must prove its optimum (final gap 0), the report must be
// parseable, a run must diff clean against its own report, and a
// tampered optimum must trip exit 2.
func TestRunAnytimeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("solves real instances")
	}
	var stdout, stderr bytes.Buffer
	dir := t.TempDir()
	path := filepath.Join(dir, "anytime.json")
	if code := run([]string{"-anytime", "-quick", "-runs", "1", "-out", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	var rep AnytimeReport
	if err := benchgate.Read(path, AnytimeReportSchema, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) == 0 {
		t.Fatal("quick run measured no cases")
	}
	for _, e := range rep.Entries {
		if e.FinalGap != 0 {
			t.Errorf("%s: final gap %v, want proven 0", e.Name, e.FinalGap)
		}
	}
	// Diffing a run against its own report is clean.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-anytime", "-quick", "-runs", "1", "-baseline", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("self-baseline exit %d\nstderr: %s", code, stderr.String())
	}
	// A baseline with a different optimum fails the gate.
	tampered := filepath.Join(dir, "tampered.json")
	rep.Entries[0].Value++
	if err := benchgate.Write(&rep, tampered); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-anytime", "-quick", "-runs", "1", "-baseline", tampered}, &stdout, &stderr); code != 2 {
		t.Fatalf("tampered baseline: exit %d, want 2; stderr: %s", code, stderr.String())
	}
}

func TestAnytimeAndOnlineExclusive(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-anytime", "-online"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "mutually exclusive") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

// TestCommittedAnytimeBaseline keeps the committed BENCH_anytime.json
// honest: right schema, all suite cases present, every entry proven.
func TestCommittedAnytimeBaseline(t *testing.T) {
	var rep AnytimeReport
	if err := benchgate.Read("../../BENCH_anytime.json", AnytimeReportSchema, &rep); err != nil {
		t.Fatal(err)
	}
	byName := map[string]AnytimeEntry{}
	for _, e := range rep.Entries {
		byName[e.Name] = e
		if e.FinalGap != 0 {
			t.Errorf("%s: committed final gap %v, want 0", e.Name, e.FinalGap)
		}
	}
	for _, c := range anytimeSuite() {
		if _, ok := byName[c.name]; !ok {
			t.Errorf("suite case %s missing from committed baseline", c.name)
		}
	}
}
