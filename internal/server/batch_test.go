package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

// postBatch sends a raw batch body and decodes the batch response.
func postBatch(t *testing.T, client *http.Client, url, body string) (int, *batchResponse) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	return resp.StatusCode, &out
}

// batchEntryJSON renders one batch entry from an instance, chip JSON
// and optional extra fields ("mode":"solve" style fragments).
func batchEntryJSON(t *testing.T, in *model.Instance, chipJSON string, extra string) string {
	t.Helper()
	body := solveBody(t, in, chipJSON, extra)
	return body
}

// shiftedInstance returns easyInstance with one duration nudged so its
// canonical hash differs from the plain easy instance.
func shiftedInstance() *model.Instance {
	in := easyInstance()
	in.Tasks[0].Dur++
	return in
}

func TestBatchDedupAndResults(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 8})
	e1 := batchEntryJSON(t, easyInstance(), `{"w":4,"h":4,"t":6}`, "")
	e3 := batchEntryJSON(t, shiftedInstance(), `{"w":4,"h":4,"t":7}`, "")
	body := fmt.Sprintf(`{"requests": [%s, %s, %s]}`, e1, e1, e3)

	code, out := postBatch(t, ts.Client(), ts.URL+"/v1/solve-batch", body)
	if code != http.StatusOK {
		t.Fatalf("batch: code=%d resp=%+v", code, out)
	}
	if out.Count != 3 || out.Succeeded != 3 || out.Failed != 0 {
		t.Fatalf("counts: %+v", out)
	}
	if out.Deduped != 1 {
		t.Fatalf("identical entries not deduped: %+v", out)
	}
	if len(out.Results) != 2 {
		t.Fatalf("want 2 distinct results, got %d", len(out.Results))
	}
	if out.Order[0] == "" || out.Order[0] != out.Order[1] || out.Order[0] == out.Order[2] {
		t.Fatalf("order keys wrong: %v", out.Order)
	}
	for hash, r := range out.Results {
		if r.Decision != "feasible" || r.Placement == nil {
			t.Fatalf("result %s not feasible: %+v", hash, r)
		}
	}
	snap := s.Registry().Snapshot()
	if snap[obs.MetricBatchEntries] != 3 || snap[obs.MetricBatchDeduped] != 1 {
		t.Fatalf("batch counters: entries=%d deduped=%d",
			snap[obs.MetricBatchEntries], snap[obs.MetricBatchDeduped])
	}
}

func TestBatchPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 8})
	good := batchEntryJSON(t, easyInstance(), `{"w":4,"h":4,"t":6}`, "")
	bad := `{"instance": {"name":"broken","tasks":[]}, "chip": {"w":4,"h":4,"t":6}}`
	body := fmt.Sprintf(`{"requests": [%s, %s]}`, good, bad)

	code, out := postBatch(t, ts.Client(), ts.URL+"/v1/solve-batch", body)
	if code != http.StatusOK {
		t.Fatalf("partial failure must still answer 200, got %d", code)
	}
	if out.Succeeded != 1 || out.Failed != 1 || len(out.Errors) != 1 {
		t.Fatalf("partial outcome wrong: %+v", out)
	}
	if out.Errors[0].Index != 1 || out.Errors[0].Error == "" {
		t.Fatalf("error entry wrong: %+v", out.Errors[0])
	}
	if out.Order[1] != "" {
		t.Fatalf("failed entry must have no order key: %v", out.Order)
	}
}

// TestBatchIsolatesUndecodableInstance pins per-entry isolation at the
// decoder: an entry whose instance carries an unknown field, or that
// carries one itself, fails alone, and the rest of the batch is still
// answered.
func TestBatchIsolatesUndecodableInstance(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 8})
	good := batchEntryJSON(t, easyInstance(), `{"w":4,"h":4,"t":6}`, "")
	bad := `{"instance": {"tasks": [{"name":"a","w":1,"h":1,"dur":1}], "bogus": 1}, "chip": {"w":4,"h":4,"t":6}}`
	badEntry := batchEntryJSON(t, shiftedInstance(), `{"w":4,"h":4,"t":7}`, `"nope": 1`)
	body := fmt.Sprintf(`{"requests": [%s, %s, %s]}`, bad, good, badEntry)

	code, out := postBatch(t, ts.Client(), ts.URL+"/v1/solve-batch", body)
	if code != http.StatusOK {
		t.Fatalf("undecodable entries must not fail the batch: code=%d", code)
	}
	if out.Succeeded != 1 || out.Failed != 2 || len(out.Errors) != 2 {
		t.Fatalf("partial outcome wrong: %+v", out)
	}
	for k, want := range map[int]string{0: "bogus", 1: "nope"} {
		if e := out.Errors[k]; e.Index != 2*k || !strings.Contains(e.Error, want) {
			t.Fatalf("error %d should name entry %d and field %q: %+v", k, 2*k, want, e)
		}
	}
	if out.Order[0] != "" || out.Order[1] == "" || out.Order[2] != "" {
		t.Fatalf("order keys wrong: %v", out.Order)
	}
}

func TestBatchRejectsSameInstanceDifferentQuestion(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 8})
	in := easyInstance()
	solve := batchEntryJSON(t, in, `{"w":4,"h":4,"t":6}`, "")
	minTime := solveBody(t, in, `{"w":4,"h":4,"t":6}`, `"mode":"minimize-time", "w":4, "h":4`)
	body := fmt.Sprintf(`{"requests": [%s, %s]}`, solve, minTime)

	code, out := postBatch(t, ts.Client(), ts.URL+"/v1/solve-batch", body)
	if code != http.StatusOK {
		t.Fatalf("batch: code=%d", code)
	}
	if out.Succeeded != 1 || out.Failed != 1 {
		t.Fatalf("want the second question rejected: %+v", out)
	}
	if !strings.Contains(out.Errors[0].Error, "different question") {
		t.Fatalf("rejection should explain the hash-key collision: %q", out.Errors[0].Error)
	}
}

func TestBatchBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxBatch: 2})
	e := batchEntryJSON(t, easyInstance(), `{"w":4,"h":4,"t":6}`, "")
	cases := map[string]string{
		"empty":     `{"requests": []}`,
		"oversized": fmt.Sprintf(`{"requests": [%s, %s, %s]}`, e, e, e),
		"undecoded": `{"requests": [`,
		// An entry that fails alone does not hide a later syntax error.
		"malformed after bad entry": `{"requests": [{"bogus": 1}, {"instance": }]}`,
		"unknown":                   `{"nope": true}`,
	}
	for name, body := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/solve-batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d", name, resp.StatusCode)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/solve-batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: want 405, got %d", resp.StatusCode)
	}
}

func TestBatchSharesResultCacheWithSync(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 8})
	body := solveBody(t, easyInstance(), `{"w":4,"h":4,"t":6}`, "")
	if code, r, _ := postSolve(t, ts.Client(), ts.URL+"/v1/solve", body); code != http.StatusOK || r.Cached {
		t.Fatalf("priming solve: code=%d cached=%v", code, r.Cached)
	}
	before := oppWork(s.Registry())
	code, out := postBatch(t, ts.Client(), ts.URL+"/v1/solve-batch", fmt.Sprintf(`{"requests": [%s]}`, body))
	if code != http.StatusOK || out.Succeeded != 1 {
		t.Fatalf("batch after sync: code=%d %+v", code, out)
	}
	for _, r := range out.Results {
		if !r.Cached {
			t.Fatalf("batch entry should hit the cache primed by /v1/solve: %+v", r)
		}
	}
	if after := oppWork(s.Registry()); after != before {
		t.Fatalf("cache hit still invoked the solver: %d -> %d", before, after)
	}
}
