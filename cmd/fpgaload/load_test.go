package main

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fpga3d/internal/benchgate"
	"fpga3d/internal/server"
)

// startDaemon brings up an in-process serving stack, so the load
// generator is tested end to end without a network or a binary.
func startDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	s := server.New(server.Config{MaxConcurrent: 4, QueueDepth: 64, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestLoadReplayCleanAndDeterministic(t *testing.T) {
	ts := startDaemon(t)
	cfg := loadConfig{baseURL: ts.URL, seed: 7, clients: 3, requests: 12, timeout: 10 * time.Second}

	rep, opErrs, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(opErrs) > 0 {
		t.Fatalf("replay had client-visible errors: %v", opErrs)
	}
	total := 0
	counts := map[string]int{}
	for _, e := range rep.Entries {
		if e.Errors != 0 {
			t.Errorf("%s: %d errors", e.Name, e.Errors)
		}
		total += e.Count
		counts[e.Name] = e.Count
	}
	if want := cfg.clients * cfg.requests; total != want {
		t.Fatalf("op total %d, want %d", total, want)
	}
	if len(rep.Entries) != len(kinds) {
		t.Fatalf("entries: %d, want one per kind (%d)", len(rep.Entries), len(kinds))
	}

	// Same seed → same mix, even against a fresh daemon.
	ts2 := startDaemon(t)
	cfg.baseURL = ts2.URL
	rep2, _, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep2.Entries {
		if counts[e.Name] != e.Count {
			t.Errorf("%s: count %d differs from first replay's %d (seeded mix must be deterministic)",
				e.Name, e.Count, counts[e.Name])
		}
	}

	// The gating pattern: a run diffs clean against itself, the CLI
	// passes against its own report, and refuses a baseline with a
	// drifted count or one recorded under another workload.
	if msgs := benchgate.Diff(&rep.Report, &rep2.Report); len(msgs) != 0 {
		t.Errorf("self-diff reported regressions: %v", msgs)
	}
	dir := t.TempDir()
	args := []string{"-addr", ts2.URL, "-seed", "7", "-clients", "3", "-requests", "12"}
	gate := func(base *ServeReport) (int, string) {
		path := filepath.Join(dir, "base.json")
		if err := benchgate.Write(base, path); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := run(append(args, "-baseline", path), &stdout, &stderr)
		return code, stderr.String()
	}
	if code, stderr := gate(rep); code != 0 {
		t.Errorf("self baseline: exit %d, stderr: %s", code, stderr)
	}
	drifted := *rep
	drifted.Entries = append([]ServeEntry(nil), rep.Entries...)
	drifted.Entries[0].Count++
	if code, stderr := gate(&drifted); code != 2 || !strings.Contains(stderr, drifted.Entries[0].Name+": count") {
		t.Errorf("drifted count: exit %d, stderr: %s", code, stderr)
	}
	other := *rep
	other.Seed++
	if code, stderr := gate(&other); code != 2 || !strings.Contains(stderr, "not comparable") {
		t.Errorf("workload mismatch: exit %d, stderr: %s", code, stderr)
	}
}

// TestDiffCatchesRegressions: the exact diff reports a count drift and
// a client-visible error, and a change to any one field of an entry
// reports exactly that entry.
func TestDiffCatchesRegressions(t *testing.T) {
	sample := func() *benchgate.Report[ServeEntry] {
		return &benchgate.Report[ServeEntry]{
			Schema: ServeReportSchema,
			Entries: []ServeEntry{
				{Name: "serve/solve", Count: 12},
				{Name: "serve/job", Count: 8},
			},
		}
	}
	base, cur := sample(), sample()
	cur.Entries[0].Count = 11 // count drift
	cur.Entries[1].Errors = 1 // a failed operation
	if msgs := benchgate.Diff(base, cur); len(msgs) != 2 {
		t.Fatalf("want 2 regressions (count, errors), got %d: %v", len(msgs), msgs)
	}

	perturb := []func(*ServeEntry){
		func(e *ServeEntry) { e.Name += "~" },
		func(e *ServeEntry) { e.Count++ },
		func(e *ServeEntry) { e.Errors++ },
	}
	if n := reflect.TypeOf(ServeEntry{}).NumField(); n != len(perturb) {
		t.Fatalf("ServeEntry has %d fields, the table perturbs %d", n, len(perturb))
	}
	for i := range base.Entries {
		for f, p := range perturb {
			cur := sample()
			p(&cur.Entries[i])
			msgs := benchgate.Diff(base, cur)
			if len(msgs) != 1 || !strings.HasPrefix(msgs[0], base.Entries[i].Name+":") {
				t.Errorf("entry %s, field %d perturbed: msgs = %v", base.Entries[i].Name, f, msgs)
			}
		}
	}
}

// TestCommittedServeBaselineParses keeps the committed baseline honest:
// it must stay schema-compatible with the reader the gate uses.
func TestCommittedServeBaselineParses(t *testing.T) {
	var rep ServeReport
	if err := benchgate.Read("../../BENCH_serve.json", ServeReportSchema, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) == 0 {
		t.Fatal("committed baseline has no entries")
	}
	for _, e := range rep.Entries {
		if e.Errors != 0 {
			t.Errorf("committed baseline records errors in %s — regenerate it from a clean run", e.Name)
		}
	}
}
