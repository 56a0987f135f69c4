package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

// easyInstance is solved by the heuristic in well under a millisecond.
func easyInstance() *model.Instance {
	return &model.Instance{
		Name: "easy",
		Tasks: []model.Task{
			{Name: "a", W: 2, H: 2, Dur: 2},
			{Name: "b", W: 2, H: 1, Dur: 1},
			{Name: "c", W: 1, H: 2, Dur: 2},
		},
		Prec: []model.Arc{{From: 0, To: 1}, {From: 1, To: 2}},
	}
}

// hardInstance forces the exact search into an exponential region:
// 14 random-shaped tasks in a volume-tight 6×6×8 container take the
// engine well over two seconds (tens of thousands of nodes), so a
// request deadline of a few hundred milliseconds reliably expires
// while the solve is in flight.
func hardInstance() *model.Instance {
	dims := [][3]int{
		{2, 4, 4}, {4, 2, 3}, {2, 1, 1}, {1, 3, 4}, {3, 2, 1}, {3, 4, 2}, {2, 3, 4},
		{3, 1, 3}, {4, 4, 4}, {1, 3, 4}, {2, 1, 4}, {4, 2, 1}, {2, 4, 2}, {3, 2, 3},
	}
	in := &model.Instance{Name: "hard"}
	for i, d := range dims {
		in.Tasks = append(in.Tasks, model.Task{Name: fmt.Sprintf("t%d", i), W: d[0], H: d[1], Dur: d[2]})
	}
	return in
}

const hardChipJSON = `{"w":6,"h":6,"t":8}`

// postSolve sends body to path and decodes the response.
func postSolve(t *testing.T, client *http.Client, url, body string) (int, *solveResponse, http.Header) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, &out, resp.Header
}

func solveBody(t *testing.T, in *model.Instance, chipJSON string, extra string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"instance": %s, "chip": %s`, buf.String(), chipJSON)
	if extra != "" {
		body += ", " + extra
	}
	return body + "}"
}

// oppWork sums every solver-side opp.* counter: unchanged between two
// requests means the second one never invoked the solver.
func oppWork(reg *obs.Registry) int64 {
	var sum int64
	for k, v := range reg.Snapshot() {
		if strings.HasPrefix(k, "opp.") {
			sum += v
		}
	}
	return sum
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestSolveCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 2})
	body := solveBody(t, easyInstance(), `{"w":4,"h":4,"t":6}`, "")

	code, first, _ := postSolve(t, ts.Client(), ts.URL+"/v1/solve", body)
	if code != http.StatusOK || first.Decision != "feasible" {
		t.Fatalf("first solve: code=%d resp=%+v", code, first)
	}
	if first.Cached {
		t.Fatal("first response claims to be cached")
	}
	if first.Placement == nil || first.Makespan == nil {
		t.Fatalf("feasible response lacks placement/makespan: %+v", first)
	}

	before := oppWork(s.Registry())
	code, second, _ := postSolve(t, ts.Client(), ts.URL+"/v1/solve", body)
	if code != http.StatusOK || !second.Cached {
		t.Fatalf("second solve not served from cache: code=%d resp=%+v", code, second)
	}
	if after := oppWork(s.Registry()); after != before {
		t.Fatalf("cache hit still invoked the solver: opp work %d -> %d", before, after)
	}
	snap := s.Registry().Snapshot()
	if snap[obs.MetricCacheHits] != 1 || snap[obs.MetricCacheMisses] != 1 {
		t.Fatalf("cache counters: hits=%d misses=%d, want 1/1", snap[obs.MetricCacheHits], snap[obs.MetricCacheMisses])
	}
	if second.Placement == nil || second.Decision != first.Decision {
		t.Fatalf("cached response differs: %+v vs %+v", second, first)
	}
}

// TestCacheHitPermutedInstance: a renumbered resubmission of the same
// module set shares the canonical hash, but its positional placement
// indices differ — the server must re-verify and fall back to a fresh
// solve rather than serve coordinates attached to the wrong tasks.
func TestCacheHitPermutedInstance(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 2})
	in := easyInstance()
	body := solveBody(t, in, `{"w":4,"h":4,"t":6}`, "")
	if code, _, _ := postSolve(t, ts.Client(), ts.URL+"/v1/solve", body); code != http.StatusOK {
		t.Fatalf("seed solve failed: %d", code)
	}

	// Reverse the task order (and remap the precedence arcs).
	perm := []int{2, 1, 0}
	permuted := &model.Instance{Name: in.Name, Tasks: make([]model.Task, len(in.Tasks))}
	for i, task := range in.Tasks {
		permuted.Tasks[perm[i]] = task
	}
	for _, a := range in.Prec {
		permuted.Prec = append(permuted.Prec, model.Arc{From: perm[a.From], To: perm[a.To]})
	}
	if in.CanonicalHash() != permuted.CanonicalHash() {
		t.Fatal("permuted instance should share the canonical hash")
	}

	code, resp, _ := postSolve(t, ts.Client(), ts.URL+"/v1/solve", solveBody(t, permuted, `{"w":4,"h":4,"t":6}`, ""))
	if code != http.StatusOK || resp.Decision != "feasible" {
		t.Fatalf("permuted solve: code=%d resp=%+v", code, resp)
	}
	// Served answer must be valid for the permuted numbering, whether
	// it came from cache (re-verified) or a fresh solve.
	o, err := permuted.Order()
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Placement.Verify(permuted, model.Container{W: 4, H: 4, T: 6}, o); err != nil {
		t.Fatalf("served placement invalid for permuted instance: %v", err)
	}
}

// TestValueOnlyEntryNeedsIdenticalInstance checks that an answer
// without a witness is served from the cache only to the instance that
// filled it. Two transitive triangles and the six-cycle
// s1→m1→k1←s2→m2→k2←s1 of equal tasks are not isomorphic, but colour
// refinement gives them equal canonical hashes, and an infeasible
// answer carries no placement to re-verify against the second one.
func TestValueOnlyEntryNeedsIdenticalInstance(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 2})
	sixTasks := func(arcs ...[2]int) *model.Instance {
		in := &model.Instance{Tasks: make([]model.Task, 6)}
		for i := range in.Tasks {
			in.Tasks[i] = model.Task{Name: "t", W: 1, H: 1, Dur: 1}
		}
		for _, a := range arcs {
			in.Prec = append(in.Prec, model.Arc{From: a[0], To: a[1]})
		}
		return in
	}
	triangles := sixTasks([2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2}, [2]int{3, 4}, [2]int{4, 5}, [2]int{3, 5})
	// s1, m1, k1, s2, m2, k2 = 0 … 5.
	sixCycle := sixTasks([2]int{0, 1}, [2]int{1, 2}, [2]int{3, 2}, [2]int{3, 4}, [2]int{4, 5}, [2]int{0, 5})
	if triangles.CanonicalHash() != sixCycle.CanonicalHash() {
		t.Fatal("the two instances no longer share a canonical hash; the test needs another colliding pair")
	}
	const chip = `{"w":1,"h":1,"t":2}` // critical path 3: infeasible for both
	post := func(in *model.Instance) *solveResponse {
		t.Helper()
		code, resp, _ := postSolve(t, ts.Client(), ts.URL+"/v1/solve", solveBody(t, in, chip, ""))
		if code != http.StatusOK || resp.Decision != "infeasible" || resp.Placement != nil {
			t.Fatalf("solve: code=%d resp=%+v", code, resp)
		}
		return resp
	}
	if post(triangles).Cached {
		t.Fatal("first request claims to be cached")
	}
	if post(sixCycle).Cached {
		t.Fatal("value-only entry served to a non-identical instance with the same hash")
	}
	if !post(sixCycle).Cached {
		t.Fatal("value-only entry not served to the identical instance that filled it")
	}
}

func TestMinimizeEndpointsAndCache(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 2})
	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, easyInstance()); err != nil {
		t.Fatal(err)
	}

	mt := fmt.Sprintf(`{"instance": %s, "w": 4, "h": 4}`, buf.String())
	code, resp, _ := postSolve(t, ts.Client(), ts.URL+"/v1/minimize-time", mt)
	if code != http.StatusOK || resp.Decision != "feasible" || resp.Value == nil {
		t.Fatalf("minimize-time: code=%d resp=%+v", code, resp)
	}
	optT := *resp.Value
	code, resp, _ = postSolve(t, ts.Client(), ts.URL+"/v1/minimize-time", mt)
	if code != http.StatusOK || !resp.Cached || *resp.Value != optT {
		t.Fatalf("minimize-time second call: code=%d resp=%+v", code, resp)
	}

	mc := fmt.Sprintf(`{"instance": %s, "t": %d}`, buf.String(), optT)
	code, resp, _ = postSolve(t, ts.Client(), ts.URL+"/v1/minimize-chip", mc)
	if code != http.StatusOK || resp.Decision != "feasible" || resp.Value == nil {
		t.Fatalf("minimize-chip: code=%d resp=%+v", code, resp)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"not json":        `{`,
		"no instance":     `{"chip":{"w":4,"h":4,"t":4}}`,
		"unknown field":   `{"instance":{"tasks":[{"w":1,"h":1,"dur":1}]},"chip":{"w":4,"h":4,"t":4},"bogus":1}`,
		"no chip":         `{"instance":{"tasks":[{"w":1,"h":1,"dur":1}]}}`,
		"bad chip":        `{"instance":{"tasks":[{"w":1,"h":1,"dur":1}]},"chip":{"w":0,"h":4,"t":4}}`,
		"invalid inst":    `{"instance":{"tasks":[{"w":-1,"h":1,"dur":1}]},"chip":{"w":4,"h":4,"t":4}}`,
		"cyclic prec":     `{"instance":{"tasks":[{"w":1,"h":1,"dur":1},{"w":1,"h":1,"dur":1}],"prec":[{"from":0,"to":1},{"from":1,"to":0}]},"chip":{"w":4,"h":4,"t":4}}`,
		"dangling prec":   `{"instance":{"tasks":[{"w":1,"h":1,"dur":1}],"prec":[{"from":0,"to":5}]},"chip":{"w":4,"h":4,"t":4}}`,
		"empty task list": `{"instance":{"tasks":[]},"chip":{"w":4,"h":4,"t":4}}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: decoding error body: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Error == "" {
			t.Errorf("%s: status=%d error=%q, want 400 with message", name, resp.StatusCode, e.Error)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on solve endpoint: %d, want 405", resp.StatusCode)
	}
}

// TestBodyOverCapIs413 pins the body caps at the door: one byte over
// 8 MiB on a solve-shaped endpoint, or over 64 KiB on a session
// endpoint, is a 413 naming the cap, while a body of exactly the cap
// reaches the decoder.
func TestBodyOverCapIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	padded := func(prefix string, n int) string {
		return prefix + strings.Repeat(" ", n-len(prefix))
	}
	for _, tc := range []struct {
		path, body string
		want       int
		cap        string
	}{
		{"/v1/solve", padded(`{"bogus":1}`, maxRequestBytes+1), http.StatusRequestEntityTooLarge, "8 MiB"},
		{"/v1/solve-batch", padded(`{"requests":[]}`, maxRequestBytes+1), http.StatusRequestEntityTooLarge, "8 MiB"},
		{"/v1/jobs", padded(`{}`, maxRequestBytes+1), http.StatusRequestEntityTooLarge, "8 MiB"},
		{"/v1/solve", padded(`{"bogus":1}`, maxRequestBytes), http.StatusBadRequest, ""},
		{"/v1/sessions", padded(`{"w":8,"h":8}`, maxSessionBytes+1), http.StatusRequestEntityTooLarge, "64 KiB"},
		{"/v1/sessions", padded(`{"w":8,"h":8}`, maxSessionBytes), http.StatusCreated, ""},
	} {
		resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		var e errorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != tc.want || !strings.Contains(e.Error, tc.cap) {
			t.Errorf("%s with a %d-byte body: status %d error %q (%v), want %d naming %q",
				tc.path, len(tc.body), resp.StatusCode, e.Error, err, tc.want, tc.cap)
		}
	}
}

func TestDeadlineReturns504WithPartialResult(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 2})
	body := solveBody(t, hardInstance(), hardChipJSON, `"timeout_ms": 300`)

	start := time.Now()
	code, resp, _ := postSolve(t, ts.Client(), ts.URL+"/v1/solve", body)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("code=%d resp=%+v, want 504 (solve finished in %v?)", code, resp, time.Since(start))
	}
	if resp.Decision != "unknown" || resp.Error == "" {
		t.Fatalf("partial result body: %+v", resp)
	}
	if resp.Nodes == 0 {
		t.Fatalf("partial result carries no search statistics: %+v", resp)
	}
	if s.Registry().Snapshot()[obs.MetricDeadlineExpired] != 1 {
		t.Fatal("deadline metric not bumped")
	}

	// A cut-off result must not populate the cache.
	code, resp2, _ := postSolve(t, ts.Client(), ts.URL+"/v1/solve", body)
	if code != http.StatusGatewayTimeout || resp2.Cached {
		t.Fatalf("second deadline run: code=%d cached=%v", code, resp2.Cached)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 0})
	slow := solveBody(t, hardInstance(), hardChipJSON, `"timeout_ms": 2000, "no_cache": true`)

	done := make(chan struct{})
	go func() {
		defer close(done)
		postSolve(t, ts.Client(), ts.URL+"/v1/solve", slow)
	}()
	waitFor(t, func() bool { return s.pool.Inflight() == 1 })

	code, _, hdr := postSolve(t, ts.Client(), ts.URL+"/v1/solve",
		solveBody(t, easyInstance(), `{"w":4,"h":4,"t":6}`, `"timeout_ms": 1000`))
	if code != http.StatusTooManyRequests {
		t.Fatalf("code=%d, want 429", code)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After=%q, want %q", hdr.Get("Retry-After"), "1")
	}
	if s.Registry().Snapshot()[obs.MetricRejectedQueueFull] != 1 {
		t.Fatal("queue-full metric not bumped")
	}
	<-done
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, h)
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if _, ok := m[obs.MetricRequestLatency+".healthz.count"]; !ok {
		t.Fatalf("flat JSON metrics missing request-latency histogram summary; got keys %v", len(m))
	}
}

// TestGracefulDrain proves Shutdown lets an in-flight solve run to its
// own completion (here: its deadline) and deliver its response before
// the server exits.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1, Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	type answer struct {
		code int
		resp *solveResponse
	}
	got := make(chan answer, 1)
	go func() {
		code, resp, _ := postSolve(t, http.DefaultClient, url+"/v1/solve",
			solveBody(t, hardInstance(), hardChipJSON, `"timeout_ms": 800, "no_cache": true`))
		got <- answer{code, resp}
	}()
	waitFor(t, func() bool { return s.pool.Inflight() == 1 })

	shutdownDone := make(chan error, 1)
	shutdownStart := time.Now()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	select {
	case a := <-got:
		if a.code != http.StatusGatewayTimeout {
			t.Fatalf("drained request: code=%d resp=%+v", a.code, a.resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed during drain")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if waited := time.Since(shutdownStart); waited < 200*time.Millisecond {
		t.Fatalf("Shutdown returned after %v — before the in-flight solve could finish", waited)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// After drain, new connections are refused.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}

func TestPprofEndpointGated(t *testing.T) {
	_, off := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without EnablePprof: %d", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1, EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index with EnablePprof: %d, want 200", resp.StatusCode)
	}
}

// BenchmarkSolveCacheHit times one cache-hit POST /v1/solve of a
// five-task instance through the daemon's handler chain, without the
// network: decode, validate, hash, cache lookup, witness re-check and
// encoding.
func BenchmarkSolveCacheHit(b *testing.B) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	h := s.Handler()
	in := easyInstance()
	in.Tasks = append(in.Tasks, model.Task{Name: "d", W: 1, H: 1, Dur: 1}, model.Task{Name: "e", W: 2, H: 1, Dur: 2})
	in.Prec = append(in.Prec, model.Arc{From: 0, To: 3}, model.Arc{From: 3, To: 4})
	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, in); err != nil {
		b.Fatal(err)
	}
	body := []byte(`{"instance": ` + buf.String() + `, "chip": {"w":4,"h":4,"t":8}}`)
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		return rec
	}
	if rec := post(); rec.Code != http.StatusOK {
		b.Fatalf("priming solve: %d %s", rec.Code, rec.Body)
	}
	if rec := post(); !strings.Contains(rec.Body.String(), `"cached":true`) {
		b.Fatalf("second solve missed the cache: %s", rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkSolveBatchCacheHit measures a /v1/solve-batch round trip of
// eight entries that all hit the result cache: the envelope decode and
// each entry's in-place decode, hashing and cache lookup, and the
// response encoding, with the engine idle.
func BenchmarkSolveBatchCacheHit(b *testing.B) {
	// Room for all eight priming solves at once: a full admission
	// queue would fail entries and leave them out of the cache.
	s := New(Config{MaxConcurrent: 1, QueueDepth: 8})
	h := s.Handler()
	var entries []string
	for i := 0; i < 8; i++ {
		in := easyInstance()
		in.Tasks = append(in.Tasks, model.Task{Name: "d", W: 1, H: 1, Dur: 1 + i})
		var buf bytes.Buffer
		if err := model.WriteInstance(&buf, in); err != nil {
			b.Fatal(err)
		}
		entries = append(entries, `{"instance": `+buf.String()+`, "chip": {"w":4,"h":4,"t":16}}`)
	}
	body := []byte(`{"requests": [` + strings.Join(entries, ",") + `]}`)
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve-batch", bytes.NewReader(body)))
		return rec
	}
	if rec := post(); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"failed":0`) {
		b.Fatalf("priming batch: %d %s", rec.Code, rec.Body)
	}
	if rec := post(); strings.Count(rec.Body.String(), `"cached":true`) != len(entries) {
		b.Fatalf("second batch missed the cache: %s", rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
