package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"time"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
	"fpga3d/internal/server"
	"fpga3d/internal/solver"
)

// The chip every serve question is asked about: small tasks in a roomy
// 6×6×16 container, as in fpgaload.
const chipW, chipH, chipT = 6, 6, 16

// serveBench drives an in-process fpgad over loopback HTTP with the
// fpgaload operation mix: 40% solve, 15% minimize-time, 15%
// minimize-chip, 15% three-entry batches with a duplicate, 15% async
// job flows (submit, poll, collect).
type serveBench struct {
	prof    serveProfile
	srv     *server.Server
	served  chan error
	base    string
	client  *http.Client
	senders int
	corrupt bool
	mix     *rand.Rand // operation mix
	pool    []*serveInst
	// fresh, when non-nil, draws a never-repeated instance per question
	// (serve-cold); otherwise questions draw from pool (serve-hot).
	fresh    *rand.Rand
	rendered map[opKey]*serveOp // serve-hot's operations by what they ask
}

// serveInst is one instance as the load generator holds it. want,
// on serve-hot, is the library's own answer per question kind.
type serveInst struct {
	in   *model.Instance
	js   []byte
	want map[string]libAnswer
}

// libAnswer is a definitive answer: the decision and, for the
// minimize questions, the optimum.
type libAnswer struct {
	decision string
	value    int
}

// newServeBench starts the daemon with the Config fpgad builds from its
// default flags (MaxConcurrent GOMAXPROCS, QueueDepth 64, Workers 1,
// cache 256) and its access log discarded, on a loopback listener. The
// load comes from this one process, over one sender goroutine and one
// keep-alive connection per core, never more.
func newServeBench(cfg config, prof serveProfile) (*serveBench, error) {
	senders := runtime.NumCPU()
	srv := server.New(server.Config{
		MaxConcurrent:  runtime.GOMAXPROCS(0),
		QueueDepth:     64,
		DefaultTimeout: 30 * time.Second,
		CacheSize:      256,
		Workers:        1,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &serveBench{
		prof: prof, srv: srv, served: make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		senders: senders, corrupt: cfg.corrupt,
		mix:      rand.New(rand.NewSource(cfg.seed)),
		rendered: map[opKey]*serveOp{},
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost:     senders,
			MaxIdleConnsPerHost: senders,
			DisableCompression:  true,
		}},
	}
	go func() { b.served <- srv.Serve(ln) }()
	return b, nil
}

func (b *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx) // a drain error leaves nothing to clean up here
	<-b.served
	b.client.CloseIdleConnections()
}

// newServeInst renders an instance for the wire.
func newServeInst(in *model.Instance) (*serveInst, error) {
	js, err := renderJSON(in)
	if err != nil {
		return nil, err
	}
	return &serveInst{in: in, js: bytes.TrimSpace(js)}, nil
}

// setupServeHot builds serve-hot: eight pooled small instances, so
// after warm-up ≈99% of questions are cache hits and HTTP, decode,
// hashing, the cache and encoding do the work while the engine idles.
// The library's answers for every pooled question are computed here
// for the output check.
func setupServeHot(cfg config) (runner, error) {
	b, err := newServeBench(cfg, hotProfile)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	opt := solver.Options{Workers: 1}
	for i := 0; i < 8; i++ {
		in := bench.Random(rng, 5, 3, 5, 0.3)
		in.Name = fmt.Sprintf("hot-%d", i)
		si, err := newServeInst(in)
		if err != nil {
			b.close()
			return nil, err
		}
		if si.want, err = libraryAnswers(in, opt); err != nil {
			b.close()
			return nil, err
		}
		b.pool = append(b.pool, si)
	}
	if err := b.warm(len(b.pool) * 4); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// setupServeCold builds serve-cold: the same daemon and mix, but every
// question carries a fresh seeded instance, so every request misses
// the cache, fills it and evicts older entries; admission and the
// solve stages do the work.
func setupServeCold(cfg config) (runner, error) {
	b, err := newServeBench(cfg, coldProfile)
	if err != nil {
		return nil, err
	}
	b.fresh = rand.New(rand.NewSource(cfg.seed))
	if err := b.warm(32); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// warm sends n operations closed-loop and checks their answers, so
// connections, the cache and lazily built server state are ready.
func (b *serveBench) warm(n int) error {
	ops, err := b.nextOps(n)
	if err != nil {
		return err
	}
	var c checker
	for _, op := range ops {
		res := b.exec(op, time.Now(), nil)
		c.op(b.check(op, &res))
	}
	if c.failed > 0 {
		return fmt.Errorf("warm-up: %s", c.msgs[0])
	}
	return nil
}

// libraryAnswers asks the library the pooled questions directly.
func libraryAnswers(in *model.Instance, opt solver.Options) (map[string]libAnswer, error) {
	r, err := solver.SolveOPP(in, model.Container{W: chipW, H: chipH, T: chipT}, opt)
	if err != nil {
		return nil, err
	}
	mt, err := solver.MinTime(in, chipW, chipH, opt)
	if err != nil {
		return nil, err
	}
	mb, err := solver.MinBase(in, chipT, opt)
	if err != nil {
		return nil, err
	}
	return map[string]libAnswer{
		"solve":   {decision: r.Decision.String()},
		"mintime": {decision: mt.Decision.String(), value: mt.Value},
		"minchip": {decision: mb.Decision.String(), value: mb.Value},
	}, nil
}

// serveOp is one operation of the mix with its request body rendered
// before the timed window.
type serveOp struct {
	opKey
	body []byte
}

// opKey is what an operation asks: its kind (solve, mintime, minchip,
// batch, job), its instances and, for jobs, the submitter identity.
type opKey struct {
	kind   string
	a, b   *serveInst
	client string
}

// nextOps draws the next n operations of the seeded mix. On serve-hot
// an operation that repeats an earlier one shares its rendered body.
func (b *serveBench) nextOps(n int) ([]*serveOp, error) {
	ops := make([]*serveOp, n)
	for i := range ops {
		pick := b.mix.Intn(100)
		x, err := b.inst()
		if err != nil {
			return nil, err
		}
		op := serveOp{opKey: opKey{a: x}}
		switch {
		case pick < 40:
			op.kind = "solve"
		case pick < 55:
			op.kind = "mintime"
		case pick < 70:
			op.kind = "minchip"
		case pick < 85:
			op.kind = "batch"
			if op.b, err = b.inst(); err != nil {
				return nil, err
			}
		default:
			op.kind = "job"
			op.client = fmt.Sprintf("sender-%d", b.mix.Intn(b.senders))
		}
		if b.fresh != nil {
			op.body = op.render()
			ops[i] = &op
			continue
		}
		if ops[i] = b.rendered[op.opKey]; ops[i] == nil {
			op.body = op.render()
			ops[i] = &op
			b.rendered[op.opKey] = ops[i]
		}
	}
	return ops, nil
}

// render builds the operation's request body.
func (op *serveOp) render() []byte {
	chip := fmt.Sprintf(`"chip": {"w":%d,"h":%d,"t":%d}`, chipW, chipH, chipT)
	x := op.a.js
	switch op.kind {
	case "solve":
		return fmt.Appendf(nil, `{"instance": %s, %s}`, x, chip)
	case "mintime":
		return fmt.Appendf(nil, `{"instance": %s, "w": %d, "h": %d}`, x, chipW, chipH)
	case "minchip":
		return fmt.Appendf(nil, `{"instance": %s, "t": %d}`, x, chipT)
	case "batch":
		e := fmt.Sprintf(`{"instance": %s, %s}`, x, chip)
		return fmt.Appendf(nil, `{"requests": [%s, %s, {"instance": %s, %s}]}`, e, e, op.b.js, chip)
	}
	return fmt.Appendf(nil, `{"mode": "solve", "client": %q, "instance": %s, %s}`, op.client, x, chip)
}

// inst returns the next question's instance: a pooled one on
// serve-hot, a fresh one on serve-cold. Fresh instances are small
// enough to solve in about 0.1–2 ms.
func (b *serveBench) inst() (*serveInst, error) {
	if b.fresh == nil {
		return b.pool[b.mix.Intn(len(b.pool))], nil
	}
	in := bench.Random(b.fresh, 6+b.fresh.Intn(3), 3, 5, 0.3)
	in.Name = "cold"
	return newServeInst(in)
}

// opResult is one executed operation. Response bodies are kept for
// the check after the step.
type opResult struct {
	lat      time.Duration
	err      error
	bodies   [][]byte
	http     []time.Duration // per-request client time
	connWait []time.Duration // traced runs: waiting for a connection
	ttfb     []time.Duration // traced runs: request start to first response byte
}

// exec runs one operation, timed from from.
func (b *serveBench) exec(op *serveOp, from time.Time, rec *recorder) opResult {
	var res opResult
	root := rec.op("op.serve." + op.kind)
	switch op.kind {
	case "solve":
		res.err = b.do(&res, root, http.MethodPost, "/v1/solve", op.body, http.StatusOK)
	case "mintime":
		res.err = b.do(&res, root, http.MethodPost, "/v1/minimize-time", op.body, http.StatusOK)
	case "minchip":
		res.err = b.do(&res, root, http.MethodPost, "/v1/minimize-chip", op.body, http.StatusOK)
	case "batch":
		res.err = b.do(&res, root, http.MethodPost, "/v1/solve-batch", op.body, http.StatusOK)
	case "job":
		res.err = b.job(&res, root, op)
	}
	res.lat = time.Since(from)
	root.end()
	return res
}

// job drives one async job: submit (202), poll until terminal, collect
// with DELETE. The final snapshot is kept for the check.
func (b *serveBench) job(res *opResult, root *tspan, op *serveOp) error {
	if err := b.do(res, root, http.MethodPost, "/v1/jobs", op.body, http.StatusAccepted); err != nil {
		return err
	}
	var j jobResp
	if err := json.Unmarshal(res.bodies[len(res.bodies)-1], &j); err != nil {
		return fmt.Errorf("job submit: %w", err)
	}
	for polls := 0; j.State == "queued" || j.State == "running"; polls++ {
		if polls > 0 {
			time.Sleep(200 * time.Microsecond)
		}
		if err := b.do(res, root, http.MethodGet, "/v1/jobs/"+j.ID, nil, http.StatusOK); err != nil {
			return err
		}
		if err := json.Unmarshal(res.bodies[len(res.bodies)-1], &j); err != nil {
			return fmt.Errorf("job poll: %w", err)
		}
	}
	final := res.bodies[len(res.bodies)-1]
	if err := b.do(res, root, http.MethodDelete, "/v1/jobs/"+j.ID, nil, http.StatusOK); err != nil {
		return err
	}
	res.bodies = [][]byte{final}
	return nil
}

// do sends one HTTP request and reads the whole response.
func (b *serveBench) do(res *opResult, root *tspan, method, path string, body []byte, want int) error {
	sp := root.child("http." + endpointOf(path))
	defer sp.end()
	req, err := http.NewRequest(method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	if root != nil {
		var getConn time.Time
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GetConn:              func(string) { getConn = time.Now() },
			GotConn:              func(httptrace.GotConnInfo) { res.connWait = append(res.connWait, time.Since(getConn)) },
			GotFirstResponseByte: func() { res.ttfb = append(res.ttfb, time.Since(t0)) },
		}))
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.http = append(res.http, time.Since(t0))
	if err != nil {
		return fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, resp.StatusCode, want, data)
	}
	res.bodies = append(res.bodies, data)
	return nil
}

// endpointOf names a request path the way the daemon's metrics do.
func endpointOf(path string) string {
	switch path {
	case "/v1/solve":
		return "solve"
	case "/v1/minimize-time":
		return "minimize_time"
	case "/v1/minimize-chip":
		return "minimize_chip"
	case "/v1/solve-batch":
		return "solve_batch"
	}
	return "jobs"
}

// Wire shapes the check decodes (the subset of API.md it needs).
type solveResp struct {
	Decision  string           `json:"decision"`
	Value     *int             `json:"value"`
	Placement *model.Placement `json:"placement"`
}

type batchResp struct {
	Failed  int                   `json:"failed"`
	Results map[string]*solveResp `json:"results"`
	Order   []string              `json:"order"`
}

type jobResp struct {
	ID     string     `json:"id"`
	State  string     `json:"state"`
	Result *solveResp `json:"result"`
}

// check validates one operation's answer after its step: a definitive
// decision, a witness that verifies, and on serve-hot the library's own
// answer.
func (b *serveBench) check(op *serveOp, res *opResult) error {
	if res.err != nil {
		return fmt.Errorf("%s: %w", op.kind, res.err)
	}
	if len(res.bodies) == 0 {
		return fmt.Errorf("%s: no response", op.kind)
	}
	body := res.bodies[len(res.bodies)-1]
	c := &checker{corrupt: b.corrupt}
	switch op.kind {
	case "batch":
		var br batchResp
		if err := json.Unmarshal(body, &br); err != nil {
			return fmt.Errorf("batch: %w", err)
		}
		if br.Failed > 0 || len(br.Order) != 3 {
			return fmt.Errorf("batch: %d of %d entries failed", br.Failed, len(br.Order))
		}
		for i, x := range []*serveInst{op.a, op.a, op.b} {
			if err := b.checkAnswer("solve", x, br.Results[br.Order[i]], c); err != nil {
				return fmt.Errorf("batch entry %d: %w", i, err)
			}
		}
		return nil
	case "job":
		var j jobResp
		if err := json.Unmarshal(body, &j); err != nil {
			return fmt.Errorf("job: %w", err)
		}
		if j.State != "done" {
			return fmt.Errorf("job %s ended %q, want done", j.ID, j.State)
		}
		return b.checkAnswer("solve", op.a, j.Result, c)
	}
	var sr solveResp
	if err := json.Unmarshal(body, &sr); err != nil {
		return fmt.Errorf("%s: %w", op.kind, err)
	}
	return b.checkAnswer(op.kind, op.a, &sr, c)
}

// checkAnswer checks one solve-shaped answer about instance x.
func (b *serveBench) checkAnswer(kind string, x *serveInst, r *solveResp, c *checker) error {
	if r == nil {
		return fmt.Errorf("%s: missing answer", kind)
	}
	if r.Decision != solver.Feasible.String() && r.Decision != solver.Infeasible.String() {
		return fmt.Errorf("%s: decision %q is not definitive", kind, r.Decision)
	}
	value := 0
	if r.Value != nil {
		value = *r.Value
	}
	if want, ok := x.want[kind]; ok && (want.decision != r.Decision || want.value != value) {
		return fmt.Errorf("%s: answer %s/%d, library says %s/%d", kind, r.Decision, value, want.decision, want.value)
	}
	if r.Decision != solver.Feasible.String() {
		return nil
	}
	cont := model.Container{W: chipW, H: chipH, T: chipT}
	switch kind {
	case "mintime":
		cont.T = value
	case "minchip":
		cont.W, cont.H = value, value
	}
	return verifyWitness(c, x.in, r.Placement, cont)
}
