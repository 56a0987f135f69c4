package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fpga3d/internal/obs"
	"fpga3d/internal/online"
)

// sessionWire decodes the session snapshot responses.
type sessionWire struct {
	ID        string            `json:"id"`
	Now       int               `json:"now"`
	W         int               `json:"w"`
	H         int               `json:"h"`
	Residents []online.Resident `json:"residents"`
	Free      online.FreeStats  `json:"free"`
	Counters  online.Counters   `json:"counters"`
}

// postJSON sends body to url and decodes the response into out (out may
// be nil to discard).
func postJSON(t *testing.T, client *http.Client, url, body string, out any) int {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding POST %s response: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// createSession makes a session over the wire and returns its ID.
func createSession(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	var out sessionWire
	code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions", body, &out)
	if code != http.StatusCreated {
		t.Fatalf("create session: code=%d resp=%+v", code, out)
	}
	if out.ID == "" {
		t.Fatal("create session: empty id")
	}
	return out.ID
}

// admit sends one admission and returns the decoded result.
func admit(t *testing.T, ts *httptest.Server, id, body string) *online.AdmitResult {
	t.Helper()
	var res online.AdmitResult
	code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions/"+id+"/admit", body, &res)
	if code != http.StatusOK {
		t.Fatalf("admit: code=%d res=%+v", code, res)
	}
	return &res
}

func TestSessionLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := createSession(t, ts, `{"w":8,"h":8}`)

	// The Location header points at the canonical session URL.
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"w":4,"h":4}`))
	if err != nil {
		t.Fatal(err)
	}
	var second sessionWire
	if err := json.NewDecoder(resp.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if loc := resp.Header.Get("Location"); loc != "/v1/sessions/"+second.ID {
		t.Errorf("Location = %q, want /v1/sessions/%s", loc, second.ID)
	}

	res := admit(t, ts, id, `{"name":"m0","w":3,"h":3,"dur":10}`)
	if res.Decision != online.DecisionPlaced {
		t.Fatalf("admit decision = %q (by %q), want placed", res.Decision, res.DecidedBy)
	}

	var snap sessionWire
	resp, err = ts.Client().Get(ts.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(snap.Residents) != 1 || snap.Residents[0].Name != "m0" {
		t.Fatalf("snapshot residents = %+v, want one m0", snap.Residents)
	}
	if snap.Counters.Admitted != 1 {
		t.Fatalf("snapshot counters = %+v, want admitted 1", snap.Counters)
	}

	var after sessionWire
	code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions/"+id+"/depart",
		fmt.Sprintf(`{"id":%d,"at":2}`, res.ID), &after)
	if code != http.StatusOK || len(after.Residents) != 0 {
		t.Fatalf("depart: code=%d residents=%+v, want empty layout", code, after.Residents)
	}

	// Departing an unknown module is a 404, not a 400.
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions/"+id+"/depart", `{"id":99}`, nil); code != http.StatusNotFound {
		t.Fatalf("depart unknown module: code=%d, want 404", code)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: code=%d, want 200", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE: code=%d, want 404", resp.StatusCode)
	}

	got := s.Registry().Snapshot()
	for name, want := range map[string]int64{
		obs.MetricSessionsCreated:           2,
		obs.MetricSessionsDeleted:           1,
		obs.MetricSessionsActive:            1, // `second` is still resident
		obs.MetricSessionAdmits + ".placed": 1,
		obs.MetricRequests + ".sessions":    8,
	} {
		if got[name] != want {
			t.Errorf("metric %s = %d, want %d", name, got[name], want)
		}
	}
	if _, ok := s.Registry().SnapshotHistograms()[obs.MetricSessionAdmitLatency]; !ok {
		t.Errorf("histogram %s missing", obs.MetricSessionAdmitLatency)
	}
}

func TestSessionValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"create bad dims", http.MethodPost, "/v1/sessions", `{"w":0,"h":8}`, http.StatusBadRequest},
		{"create bad strategy", http.MethodPost, "/v1/sessions", `{"w":8,"h":8,"strategy":"nope"}`, http.StatusBadRequest},
		{"create bad json", http.MethodPost, "/v1/sessions", `{`, http.StatusBadRequest},
		{"collection GET", http.MethodGet, "/v1/sessions", "", http.StatusMethodNotAllowed},
		{"unknown session", http.MethodGet, "/v1/sessions/deadbeef", "", http.StatusNotFound},
		{"unknown op", http.MethodPost, "/v1/sessions/deadbeef/admit", `{}`, http.StatusNotFound},
		{"deep path", http.MethodGet, "/v1/sessions/a/b/c", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: code=%d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// An admit with invalid dims is a 400 against a real session.
	id := createSession(t, ts, `{"w":8,"h":8}`)
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions/"+id+"/admit", `{"name":"m","w":0,"h":2,"dur":3}`, nil); code != http.StatusBadRequest {
		t.Fatalf("admit bad dims: code=%d, want 400", code)
	}
}

// TestSessionDefragEndpoint drives the fragmentation scenario over the
// wire: three full-height columns, the outer two depart, and an
// explicit defrag relocates the stranded middle column.
func TestSessionDefragEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := createSession(t, ts, `{"w":8,"h":8}`)

	a := admit(t, ts, id, `{"name":"a","w":3,"h":8,"dur":100}`)
	b := admit(t, ts, id, `{"name":"b","w":2,"h":8,"dur":100}`)
	c := admit(t, ts, id, `{"name":"c","w":3,"h":8,"dur":100}`)
	for _, r := range []*online.AdmitResult{a, b, c} {
		if r.Decision != online.DecisionPlaced {
			t.Fatalf("setup admit = %q (by %q), want placed", r.Decision, r.DecidedBy)
		}
	}
	for _, rid := range []int{a.ID, c.ID} {
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions/"+id+"/depart",
			fmt.Sprintf(`{"id":%d,"at":1}`, rid), nil); code != http.StatusOK {
			t.Fatalf("depart %d: code=%d", rid, code)
		}
	}

	var plan defragResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions/"+id+"/defrag", `{"at":2}`, &plan); code != http.StatusOK {
		t.Fatalf("defrag: code=%d", code)
	}
	if len(plan.Moves) != 1 || plan.Moves[0].ID != b.ID {
		t.Fatalf("defrag moves = %+v, want exactly one move of %d", plan.Moves, b.ID)
	}
	if got := s.Registry().Snapshot()[obs.MetricSessionDefragMoves]; got != 1 {
		t.Errorf("metric %s = %d, want 1", obs.MetricSessionDefragMoves, got)
	}

	var snap sessionWire
	resp, err := ts.Client().Get(ts.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Free.LargestW != 6 {
		t.Fatalf("largest free width after defrag = %d, want 6 (free=%+v)", snap.Free.LargestW, snap.Free)
	}
}

func TestSessionCapacity(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 1})
	createSession(t, ts, `{"w":4,"h":4}`)
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions", `{"w":4,"h":4}`, nil); code != http.StatusTooManyRequests {
		t.Fatalf("second create with MaxSessions=1: code=%d, want 429", code)
	}
}

// TestSessionTTLEviction moves the manager's clock past the TTL and
// checks the lazy sweep drops the idle session on the next lookup.
func TestSessionTTLEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{SessionTTL: time.Minute})
	id := createSession(t, ts, `{"w":4,"h":4}`)

	s.sessions.mu.Lock()
	s.sessions.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	s.sessions.mu.Unlock()

	resp, err := ts.Client().Get(ts.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after TTL: code=%d, want 404", resp.StatusCode)
	}
	got := s.Registry().Snapshot()
	if got[obs.MetricSessionsExpired] != 1 {
		t.Errorf("metric %s = %d, want 1", obs.MetricSessionsExpired, got[obs.MetricSessionsExpired])
	}
	if got[obs.MetricSessionsActive] != 0 {
		t.Errorf("metric %s = %d, want 0", obs.MetricSessionsActive, got[obs.MetricSessionsActive])
	}
}

// TestSessionEventsSSE subscribes to a session's event stream, sees the
// admit event replayed, then observes the terminal done frame when the
// session is deleted.
func TestSessionEventsSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts, `{"w":8,"h":8}`)
	admit(t, ts, id, `{"name":"m0","w":2,"h":2,"dur":5}`)

	resp, err := ts.Client().Get(ts.URL + "/v1/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: code=%d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}

	// Read frames incrementally: the subscription replays the latest
	// event first, and deleting the session must end the stream.
	type frame struct {
		name  string
		phase string
	}
	frames := make(chan frame)
	go func() {
		defer close(frames)
		var cur frame
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				cur.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				var pw progressWire
				if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &pw) == nil {
					cur.phase = pw.Phase
				}
			case line == "":
				if cur.name != "" {
					frames <- cur
					if cur.name == "done" {
						return
					}
					cur = frame{}
				}
			}
		}
	}()

	wait := func(what string) frame {
		t.Helper()
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatalf("stream ended before %s", what)
			}
			return f
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
		panic("unreachable")
	}

	first := wait("replayed admit event")
	if first.name != "progress" || first.phase != "admit:placed" {
		t.Fatalf("first frame = %+v, want progress/admit:placed", first)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()

	for {
		f := wait("terminal done frame")
		if f.name == "done" {
			break
		}
	}

	// The stream of a session that never existed is a 404.
	missing, err := ts.Client().Get(ts.URL + "/v1/sessions/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, missing.Body)
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("events for unknown session: code=%d, want 404", missing.StatusCode)
	}
}

// TestSessionBodiesRejectUnknownFields pins the session endpoints to
// the strictness of the solve endpoints: a misspelled field is a 400,
// not a silently ignored setting.
func TestSessionBodiesRejectUnknownFields(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions", `{"w":8,"h":8,"probe_nodes_limit":100}`, nil); code != http.StatusBadRequest {
		t.Fatalf("create with a misspelled field: code=%d, want 400", code)
	}
	id := createSession(t, ts, `{"w":8,"h":8,"probe_node_limit":100}`)
	for op, body := range map[string]string{
		"admit":  `{"name":"m","w":2,"h":2,"dur":3,"durr":4}`,
		"depart": `{"id":0,"at":1,"when":2}`,
		"defrag": `{"at":0,"moves":1}`,
	} {
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions/"+id+"/"+op, body, nil); code != http.StatusBadRequest {
			t.Errorf("%s with an unknown field: code=%d, want 400", op, code)
		}
	}
}
