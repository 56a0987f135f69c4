// Command fpgaload is the serving-layer load generator: it replays a
// seeded mix of synchronous solves, optimizations, batches and async
// jobs against a live fpgad daemon and reports per-kind operation and
// error counts as a schema-stamped JSON report, gated against a
// committed baseline with the same exact diff fpgabench uses
// (BENCHMARKS.md, "Serving load"). Serving latency and throughput are
// judged by cmd/fpgaperf's serve-hot and serve-cold workloads.
//
// Usage:
//
//	fpgad -addr :8080 &
//	fpgaload -addr localhost:8080 -seed 1 -clients 4 -requests 25 \
//	         -out BENCH_serve.json -baseline BENCH_serve.json
//
// The op mix is a pure function of (-seed, -clients, -requests): client
// i draws from its own rand.NewSource(seed+i), so per-kind operation
// counts are identical on every machine and diffed exactly. Exit
// status: 0 ok, 1 usage or I/O error, 2 gate failure (a client-visible
// error, a count that differs from the baseline, or a baseline recorded
// under another workload).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"fpga3d/internal/bench"
	"fpga3d/internal/benchgate"
	"fpga3d/internal/model"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// kinds lists the operation kinds in report order.
var kinds = []string{"serve/solve", "serve/mintime", "serve/minchip", "serve/batch", "serve/job"}

// loadConfig pins one replay: everything the generator samples derives
// from Seed, so the mix is reproducible.
type loadConfig struct {
	baseURL  string
	seed     int64
	clients  int
	requests int // per client
	timeout  time.Duration
}

// workload is the shared, pre-rendered instance pool: a handful of
// small seeded instances (JSON-encoded once) that the solver answers in
// well under a millisecond, so the replay measures the serving layer,
// not search.
type workload struct {
	instances [][]byte
}

// chip dimensions every pooled instance is asked about. Small tasks in
// a roomy 6×6×16 container keep each solve trivial.
const (
	chipW, chipH, chipT = 6, 6, 16
)

// buildWorkload renders the seeded instance pool.
func buildWorkload(seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{}
	for i := 0; i < 8; i++ {
		in := bench.Random(rng, 4+rng.Intn(2), 3, 5, 0.3)
		in.Name = fmt.Sprintf("load-%d", i)
		var buf bytes.Buffer
		if err := model.WriteInstance(&buf, in); err != nil {
			return nil, err
		}
		w.instances = append(w.instances, buf.Bytes())
	}
	return w, nil
}

// tally accumulates one client's operation and error counts per kind.
type tally struct {
	ops, errors map[string]int
}

func newTally() *tally {
	return &tally{ops: make(map[string]int), errors: make(map[string]int)}
}

// record stores one operation's outcome.
func (t *tally) record(kind string, err error) {
	t.ops[kind]++
	if err != nil {
		t.errors[kind]++
	}
}

// runLoad executes the whole replay and assembles the report. It is the
// programmatic core behind the CLI, called directly by the in-process
// tests.
func runLoad(cfg loadConfig) (*ServeReport, []string, error) {
	w, err := buildWorkload(cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	client := &http.Client{Timeout: cfg.timeout + 5*time.Second}

	tallies := make([]*tally, cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tallies[c] = runClient(cfg, w, client, c)
		}(c)
	}
	wg.Wait()

	rep := &ServeReport{
		Report:   benchgate.New[ServeEntry](ServeReportSchema),
		Workload: Workload{Seed: cfg.seed, Clients: cfg.clients, Requests: cfg.requests},
	}
	var opErrs []string
	for _, kind := range kinds {
		e := ServeEntry{Name: kind}
		for _, t := range tallies {
			e.Count += t.ops[kind]
			e.Errors += t.errors[kind]
		}
		rep.Entries = append(rep.Entries, e)
		if e.Errors > 0 {
			opErrs = append(opErrs, fmt.Sprintf("%s: %d of %d operations failed", kind, e.Errors, e.Count))
		}
	}
	return rep, opErrs, nil
}

// runClient replays one client's seeded op stream. Every random draw
// happens unconditionally, so the mix never depends on server
// responses and stays identical across machines and runs.
func runClient(cfg loadConfig, w *workload, client *http.Client, idx int) *tally {
	rng := rand.New(rand.NewSource(cfg.seed + int64(idx)))
	t := newTally()
	name := fmt.Sprintf("load-client-%d", idx)
	for i := 0; i < cfg.requests; i++ {
		pick := rng.Intn(100)
		inst := w.instances[rng.Intn(len(w.instances))]
		alt := w.instances[rng.Intn(len(w.instances))]
		var kind string
		var err error
		switch {
		case pick < 40:
			kind = "serve/solve"
			err = postExpect(client, cfg.baseURL+"/v1/solve", solveBody(inst, cfg.timeout), http.StatusOK)
		case pick < 55:
			kind = "serve/mintime"
			err = postExpect(client, cfg.baseURL+"/v1/minimize-time",
				fmt.Sprintf(`{"instance": %s, "w": %d, "h": %d, "timeout_ms": %d}`, inst, chipW, chipH, cfg.timeout.Milliseconds()), http.StatusOK)
		case pick < 70:
			kind = "serve/minchip"
			err = postExpect(client, cfg.baseURL+"/v1/minimize-chip",
				fmt.Sprintf(`{"instance": %s, "t": %d, "timeout_ms": %d}`, inst, chipT, cfg.timeout.Milliseconds()), http.StatusOK)
		case pick < 85:
			kind = "serve/batch"
			err = runBatch(client, cfg, inst, alt)
		default:
			kind = "serve/job"
			err = runJob(client, cfg, inst, name)
		}
		t.record(kind, err)
	}
	return t
}

// solveBody renders a /v1/solve request for one pooled instance.
func solveBody(inst []byte, timeout time.Duration) string {
	return fmt.Sprintf(`{"instance": %s, "chip": {"w":%d,"h":%d,"t":%d}, "timeout_ms": %d}`,
		inst, chipW, chipH, chipT, timeout.Milliseconds())
}

// postExpect POSTs a JSON body and fails unless the response has the
// expected status.
func postExpect(client *http.Client, url, body string, want int) error {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != want {
		return fmt.Errorf("%s: status %d, want %d", url, resp.StatusCode, want)
	}
	return nil
}

// runBatch issues one three-entry batch with a deliberate duplicate
// (exercising canonical-hash dedup) and requires every entry to
// succeed.
func runBatch(client *http.Client, cfg loadConfig, inst, alt []byte) error {
	e := solveBody(inst, cfg.timeout)
	body := fmt.Sprintf(`{"requests": [%s, %s, %s]}`, e, e, solveBody(alt, cfg.timeout))
	resp, err := client.Post(cfg.baseURL+"/v1/solve-batch", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("batch: status %d", resp.StatusCode)
	}
	var out struct {
		Failed int `json:"failed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("batch: decoding: %w", err)
	}
	if out.Failed > 0 {
		return fmt.Errorf("batch: %d entries failed", out.Failed)
	}
	return nil
}

// runJob drives one async job end to end: submit (202), poll until
// terminal, require "done", and collect it with DELETE.
func runJob(client *http.Client, cfg loadConfig, inst []byte, clientName string) error {
	body := fmt.Sprintf(`{"mode":"solve", "client": %q, "instance": %s, "chip": {"w":%d,"h":%d,"t":%d}, "timeout_ms": %d}`,
		clientName, inst, chipW, chipH, chipT, cfg.timeout.Milliseconds())
	resp, err := client.Post(cfg.baseURL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	var submitted struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("job submit: decoding: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("job submit: status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(cfg.timeout + 5*time.Second)
	state := submitted.State
	for state == "queued" || state == "running" {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s: still %s at deadline", submitted.ID, state)
		}
		time.Sleep(2 * time.Millisecond)
		r, err := client.Get(cfg.baseURL + "/v1/jobs/" + submitted.ID)
		if err != nil {
			return err
		}
		var snap struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(r.Body).Decode(&snap)
		r.Body.Close()
		if err != nil || r.StatusCode != http.StatusOK {
			return fmt.Errorf("job %s: poll status %d err %v", submitted.ID, r.StatusCode, err)
		}
		state = snap.State
	}
	if state != "done" {
		return fmt.Errorf("job %s: terminal state %q, want done", submitted.ID, state)
	}
	req, err := http.NewRequest(http.MethodDelete, cfg.baseURL+"/v1/jobs/"+submitted.ID, nil)
	if err != nil {
		return err
	}
	dr, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, dr.Body)
	dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		return fmt.Errorf("job %s: delete status %d", submitted.ID, dr.StatusCode)
	}
	return nil
}

// newFlagSet builds the CLI flag set, reporting usage to stderr.
func newFlagSet(stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("fpgaload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// run is the testable CLI entry point: parse flags, replay, write the
// report, gate against the baseline.
func run(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet(stderr)
	var (
		addr     = fs.String("addr", "", "daemon address (host:port or http URL); required")
		seed     = fs.Int64("seed", 1, "workload seed; with -clients and -requests it pins the op mix exactly")
		clients  = fs.Int("clients", 4, "concurrent load clients")
		requests = fs.Int("requests", 25, "operations per client")
		timeout  = fs.Duration("timeout", 10*time.Second, "per-operation solve deadline (timeout_ms on every request)")
		out      = fs.String("out", "", "write the JSON report here (\"-\" for stdout)")
		baseline = fs.String("baseline", "", "gate against this committed report")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *addr == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "fpgaload: -addr is required; try: fpgaload -addr localhost:8080 -out -")
		return 1
	}
	base := *addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	if *clients < 1 || *requests < 1 {
		fmt.Fprintln(stderr, "fpgaload: -clients and -requests must be positive")
		return 1
	}

	rep, opErrs, err := runLoad(loadConfig{
		baseURL: base, seed: *seed, clients: *clients, requests: *requests, timeout: *timeout,
	})
	if err != nil {
		fmt.Fprintf(stderr, "fpgaload: %v\n", err)
		return 1
	}
	for _, e := range rep.Entries {
		fmt.Fprintf(stdout, "%-14s count %4d  errors %d\n", e.Name, e.Count, e.Errors)
	}

	if *out != "" {
		if err := benchgate.Write(rep, *out); err != nil {
			fmt.Fprintf(stderr, "fpgaload: write report: %v\n", err)
			return 1
		}
	}
	if len(opErrs) > 0 {
		for _, m := range opErrs {
			fmt.Fprintf(stderr, "fpgaload: FAILED: %s\n", m)
		}
		return 2
	}
	if *baseline != "" {
		var baseRep ServeReport
		if err := benchgate.Read(*baseline, ServeReportSchema, &baseRep); err != nil {
			fmt.Fprintf(stderr, "fpgaload: baseline: %v\n", err)
			return 1
		}
		if baseRep.Workload != rep.Workload {
			fmt.Fprintf(stderr, "fpgaload: REGRESSION: workload %+v, baseline %+v — counts are not comparable\n",
				rep.Workload, baseRep.Workload)
			return 2
		}
		msgs := benchgate.Diff(&baseRep.Report, &rep.Report)
		for _, m := range msgs {
			fmt.Fprintf(stderr, "fpgaload: REGRESSION: %s\n", m)
		}
		if len(msgs) > 0 {
			return 2
		}
		fmt.Fprintf(stdout, "baseline %s: %d kinds compared, no regressions\n", *baseline, len(rep.Entries))
	}
	return 0
}
