package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fpga3d/internal/benchgate"
)

func sampleOnlineReport() *OnlineReport {
	return &OnlineReport{
		Schema:    OnlineReportSchema,
		Generated: "2026-08-06T00:00:00Z",
		Env:       benchgate.Stamp(),
		Runs:      3,
		Entries: []OnlineEntry{
			{Name: "online/steady/8x8", Seed: 1, Events: 62, Admitted: 48, Departed: 14},
			{Name: "online/tight/6x6", Seed: 5, Events: 70, Admitted: 48, Rejected: 8, Departed: 9,
				Defrags: 4, DefragMoves: 21, ProbeNodes: 6},
		},
	}
}

func TestOnlineReportRoundTrip(t *testing.T) {
	r := sampleOnlineReport()
	path := filepath.Join(t.TempDir(), "online.json")
	if err := benchgate.Write(r, path); err != nil {
		t.Fatal(err)
	}
	var got OnlineReport
	if err := benchgate.Read(path, OnlineReportSchema, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, &got) {
		t.Fatalf("round trip changed the report:\nwrote %+v\nread  %+v", r, got)
	}
	if msgs := benchgate.Diff(r, &got); len(msgs) != 0 {
		t.Fatalf("self-diff not clean: %v", msgs)
	}

	r.Schema = "fpgabench/online/v1"
	if err := benchgate.Write(r, path); err != nil {
		t.Fatal(err)
	}
	if err := benchgate.Read(path, OnlineReportSchema, &got); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// TestDiffOnlineRegressions exercises each class the online gate can
// raise: drift in any field of any entry (decisions, defrag moves,
// probe nodes, the script's event count and seed), and vanished cases.
func TestDiffOnlineRegressions(t *testing.T) {
	base := sampleOnlineReport()

	t.Run("every field", func(t *testing.T) { perturbEach(t, sampleOnlineReport) })
	t.Run("micro latency noise under floor ignored", func(t *testing.T) {
		// Between hosts only the machine stamp differs, and it is not
		// gated.
		if msgs := benchgate.Diff(base, otherMachine(sampleOnlineReport())); len(msgs) != 0 {
			t.Fatalf("machine stamp gated: %v", msgs)
		}
	})
	t.Run("decision drift", func(t *testing.T) {
		cur := sampleOnlineReport()
		cur.Entries[0].Admitted--
		cur.Entries[0].Rejected++
		msgs := benchgate.Diff(base, cur)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "admitted 47, baseline 48; rejected 1, baseline 0") {
			t.Fatalf("msgs = %v", msgs)
		}
	})
	t.Run("defrag move drift", func(t *testing.T) {
		cur := sampleOnlineReport()
		cur.Entries[1].DefragMoves++
		msgs := benchgate.Diff(base, cur)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "defrag_moves 22, baseline 21") {
			t.Fatalf("msgs = %v", msgs)
		}
	})
	t.Run("probe node drift", func(t *testing.T) {
		cur := sampleOnlineReport()
		cur.Entries[1].ProbeNodes++
		msgs := benchgate.Diff(base, cur)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "probe_nodes 7, baseline 6") {
			t.Fatalf("msgs = %v", msgs)
		}
	})
	t.Run("missing case in full run", func(t *testing.T) {
		cur := sampleOnlineReport()
		cur.Entries = cur.Entries[:1]
		msgs := benchgate.Diff(base, cur)
		if len(msgs) != 1 || !strings.Contains(msgs[0], "not in this run") {
			t.Fatalf("msgs = %v", msgs)
		}
	})
	t.Run("missing case tolerated in quick run", func(t *testing.T) {
		cur := sampleOnlineReport()
		cur.Entries = cur.Entries[:1]
		cur.Quick = true
		if msgs := benchgate.Diff(base, cur); len(msgs) != 0 {
			t.Fatalf("quick run flagged for subsetting: %v", msgs)
		}
	})
}

// TestLatencyPercentiles checks that the online report is exact:
// repeated -online replays give identical entries, and each report
// diffs clean against the other.
func TestLatencyPercentiles(t *testing.T) {
	dir := t.TempDir()
	var reps [2]OnlineReport
	for i := range reps {
		path := filepath.Join(dir, fmt.Sprintf("online%d.json", i))
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-online", "-quick", "-runs", "1", "-out", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("replay %d: exit %d, stderr: %s", i, code, stderr.String())
		}
		if err := benchgate.Read(path, OnlineReportSchema, &reps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(reps[0].Entries, reps[1].Entries) {
		t.Fatalf("repeated replays differ:\n%+v\n%+v", reps[0].Entries, reps[1].Entries)
	}
	if msgs := benchgate.Diff(&reps[0], &reps[1]); len(msgs) != 0 {
		t.Fatalf("repeated replays diff: %v", msgs)
	}
}

// TestRunOnlineEndToEnd drives fpgabench -online over the quick subset:
// report written and well-formed, self-baseline clean, tampered
// baseline trips exit 2.
func TestRunOnlineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "online.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-online", "-quick", "-runs", "2", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var rep OnlineReport
	if err := benchgate.Read(out, OnlineReportSchema, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) == 0 || !rep.Quick {
		t.Fatalf("bad report: %+v", rep)
	}
	for _, e := range rep.Entries {
		if e.Admitted == 0 {
			t.Fatalf("%s: script admitted nothing", e.Name)
		}
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-online", "-quick", "-runs", "1", "-baseline", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("self baseline: exit %d, stderr: %s", code, stderr.String())
	}

	tampered := filepath.Join(dir, "tampered.json")
	bad := rep
	bad.Entries = append([]OnlineEntry(nil), rep.Entries...)
	for i := range bad.Entries {
		bad.Entries[i].Admitted++
	}
	if err := benchgate.Write(&bad, tampered); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-online", "-quick", "-runs", "1", "-baseline", tampered}, &stdout, &stderr); code != 2 {
		t.Fatalf("tampered baseline: exit %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "admitted") {
		t.Fatalf("stderr missing regression message: %s", stderr.String())
	}
}

// TestCommittedOnlineBaselineMatches replays every suite script and
// checks the deterministic fields against the committed
// BENCH_online.json — the replay analogue of TestCommittedBaselineParses,
// but strong enough to re-derive the counts because each script runs in
// well under a second.
func TestCommittedOnlineBaselineMatches(t *testing.T) {
	var rep OnlineReport
	if err := benchgate.Read("../../BENCH_online.json", OnlineReportSchema, &rep); err != nil {
		t.Fatal(err)
	}
	byName := map[string]OnlineEntry{}
	for _, e := range rep.Entries {
		byName[e.Name] = e
	}
	for _, c := range onlineSuite() {
		b, ok := byName[c.name]
		if !ok {
			t.Errorf("baseline missing case %q — refresh BENCH_online.json (fpgabench -online -out BENCH_online.json)", c.name)
			continue
		}
		e, err := measureOnlineCase(c, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if e != b {
			t.Errorf("%s: replay disagrees with committed baseline:\nnow      %+v\nbaseline %+v", c.name, e, b)
		}
	}
}
