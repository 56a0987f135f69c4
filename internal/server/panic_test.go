package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fpga3d/internal/obs"
)

// panicOnShifted makes the server's own goroutines panic on every solve
// of shiftedInstance and run the others normally. It returns the log
// lines the server wrote.
func panicOnShifted(s *Server) func() string {
	var mu sync.Mutex
	var log strings.Builder
	s.cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(&log, format+"\n", args...)
	}
	bad := shiftedInstance().CanonicalHash()
	s.solveOwn = func(ctx context.Context, t *solveTask) (*solveResponse, error) {
		if t.in.CanonicalHash() == bad {
			panic("injected solver panic")
		}
		return s.runSolve(ctx, t)
	}
	return func() string {
		mu.Lock()
		defer mu.Unlock()
		return log.String()
	}
}

// TestJobPanicFailsOnlyThatJob: a panic in an async job's executor
// fails that job with "internal error", is counted and logged with its
// stack, and the daemon goes on serving jobs.
func TestJobPanicFailsOnlyThatJob(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 8})
	logged := panicOnShifted(s)

	code, bad, _ := postJob(t, ts.Client(), ts.URL, solveBody(t, shiftedInstance(), `{"w":4,"h":4,"t":7}`, `"mode":"solve"`))
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	failed := pollJob(t, ts.Client(), ts.URL, bad.ID, func(j *jobWire) bool { return j.State == "failed" })
	if failed.Error != "internal error" || failed.Result != nil {
		t.Fatalf("panicked job: %+v", failed)
	}
	if n := s.Registry().Snapshot()[obs.MetricSolveErrors]; n != 1 {
		t.Fatalf("%s = %d, want 1", obs.MetricSolveErrors, n)
	}
	if l := logged(); !strings.Contains(l, "injected solver panic") || !strings.Contains(l, "goroutine") {
		t.Fatalf("panic not logged with its stack:\n%s", l)
	}

	_, good, _ := postJob(t, ts.Client(), ts.URL, solveBody(t, easyInstance(), `{"w":4,"h":4,"t":6}`, `"mode":"solve"`))
	done := pollJob(t, ts.Client(), ts.URL, good.ID, func(j *jobWire) bool { return j.State == "done" })
	if done.Result == nil || done.Result.Decision != "feasible" {
		t.Fatalf("job after the panic: %+v", done)
	}
	waitExecutors(t, s, 5*time.Second)
}

// TestBatchPanicFailsOnlyThatEntry: a panic in one batch leader's
// goroutine fails that entry with "internal error"; the other entries
// of the batch are answered.
func TestBatchPanicFailsOnlyThatEntry(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 8})
	logged := panicOnShifted(s)
	good := batchEntryJSON(t, easyInstance(), `{"w":4,"h":4,"t":6}`, "")
	bad := batchEntryJSON(t, shiftedInstance(), `{"w":4,"h":4,"t":7}`, "")

	code, out := postBatch(t, ts.Client(), ts.URL+"/v1/solve-batch", fmt.Sprintf(`{"requests": [%s, %s]}`, good, bad))
	if code != http.StatusOK {
		t.Fatalf("batch: code %d", code)
	}
	if out.Succeeded != 1 || out.Failed != 1 || len(out.Errors) != 1 {
		t.Fatalf("batch outcome: %+v", out)
	}
	if e := out.Errors[0]; e.Index != 1 || e.Error != "internal error" {
		t.Fatalf("panicked entry: %+v", e)
	}
	if r := out.Results[out.Order[0]]; r == nil || r.Decision != "feasible" {
		t.Fatalf("healthy entry not answered: %+v", out)
	}
	if n := s.Registry().Snapshot()[obs.MetricSolveErrors]; n != 1 {
		t.Fatalf("%s = %d, want 1", obs.MetricSolveErrors, n)
	}
	if l := logged(); !strings.Contains(l, "panic in batch entry 1") {
		t.Fatalf("panic not logged:\n%s", l)
	}
}
