package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// serveProfile fixes a serve workload's load: capacity is its
// closed-loop throughput with two callers in operations per second,
// calibrated once on a 2-core host at the slow end of what it measured
// there; the traced run's open-loop step runs at 60% of it.
type serveProfile struct {
	capacity float64
}

// serveTail is the percentile the serve workloads' tail latencies
// report.
const serveTail = 0.99

func (p serveProfile) mid() float64 { return 0.60 * p.capacity }

var (
	hotProfile  = serveProfile{capacity: 8000}
	coldProfile = serveProfile{capacity: 2500}
)

// lagLimit is the generator guard. Go's timers wake a sleeping sender
// up to about 1ms late on an idle host, and 2–3ms late when the
// in-process daemon keeps both cores of a 2-core host busy; an
// open-loop step whose senders woke later than lagLimit (p99) measured
// the load generator rather than the daemon, and is marked invalid.
const lagLimit = 5 * time.Millisecond

// openStep is one open-loop step at a fixed rate.
type openStep struct {
	rate      float64
	p50, tail time.Duration
	lag       time.Duration // p99 of how late sleeping senders woke
	results   []opResult
}

// open sends ops open-loop at rate, from b.senders goroutines over as
// many keep-alive connections. Operation i is due at start + i/rate and
// is timed from then, so a stall shows in the latency of everything
// queued behind it. A sender that slept until an operation fell due
// and woke late times it from waking instead: that lateness is the
// generator's own lag, reported separately and not charged to the
// daemon.
func (b *serveBench) open(rate float64, ops []*serveOp, rec *recorder) *openStep {
	results := make([]opResult, len(ops))
	late := make([]time.Duration, len(ops))
	slept := make([]bool, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < b.senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				from := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if w := time.Until(from); w > 0 {
					time.Sleep(w)
					now := time.Now()
					late[i], slept[i] = now.Sub(from), true
					from = now
				}
				results[i] = b.exec(ops[i], from, rec)
			}
		}()
	}
	wg.Wait()
	lat := make([]time.Duration, len(results))
	var lags []time.Duration
	for i := range results {
		lat[i] = results[i].lat
		if slept[i] {
			lags = append(lags, late[i])
		}
	}
	st := &openStep{rate: rate, results: results, lag: percentile(lags, 0.99)}
	st.p50, st.tail = windowQuantiles(chunks(lat, tailWindow(serveTail)), serveTail)
	return st
}

// closedSlices is how many slices a closed loop is cut into. Between
// two slices the callers pause while the host gauge samples its
// reference kernel on the idle cores.
const closedSlices = 30

// closedLoop is the outcome of a closed loop: the operations' results,
// their latencies and the throughput, both scaled to the nominal host.
type closedLoop struct {
	results []opResult
	lat     []time.Duration
	rate    float64 // median over slices of operations completed per second
	factor  float64 // the host gauge's median factor
}

// closed runs ops closed-loop for about d with the given number of
// callers, each sending its next operation when the previous one
// returns. Ops is sized so it outlasts d; if it runs out first, the
// loop ends early.
func (b *serveBench) closed(d time.Duration, callers int, ops []*serveOp, rec *recorder) *closedLoop {
	results := make([]opResult, len(ops))
	g := &hostGauge{}
	out := &closedLoop{}
	var rates []float64
	sent := 0
	for k := 0; k < closedSlices && sent < len(ops); k++ {
		f := g.factor()
		n, wall := b.closedSlice(d/closedSlices, callers, ops[sent:], results[sent:], rec)
		g.done(wall)
		rates = append(rates, float64(n)/scaled(wall, f).Seconds())
		for _, r := range results[sent : sent+n] {
			out.lat = append(out.lat, scaled(r.lat, f))
		}
		sent += n
	}
	out.results, out.rate, out.factor = results[:sent], median(rates), g.median()
	return out
}

// closedSlice runs one slice of a closed loop: callers send ops in
// order until d has passed, then finish the operation they are on. It
// returns how many operations completed and the slice's wall time.
func (b *serveBench) closedSlice(d time.Duration, callers int, ops []*serveOp, results []opResult, rec *recorder) (int, time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < callers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				results[i] = b.exec(ops[i], time.Now(), rec)
			}
		}()
	}
	wg.Wait()
	return min(int(next.Load()), len(ops)), time.Since(start)
}

// closedStep runs a closed loop of callers for d and checks its
// answers.
func (b *serveBench) closedStep(d time.Duration, callers int, rec *recorder, c *checker) (*closedLoop, error) {
	// Half as much again as the calibrated capacity allows, so the loop
	// outlasts d unless the daemon gets that much faster.
	ops, err := b.nextOps(max(1, int(1.5*b.prof.capacity*d.Seconds()*float64(callers)/float64(b.senders))))
	if err != nil {
		return nil, err
	}
	cl := b.closed(d, callers, ops, rec)
	b.checkAll(ops, cl.results, c)
	return cl, nil
}

// checkAll checks every result of a step after its timed window.
func (b *serveBench) checkAll(ops []*serveOp, results []opResult, c *checker) {
	for i := range results {
		c.op(b.check(ops[i], &results[i]))
	}
}

// midStep runs the open-loop step at the mid rate for d, with the
// daemon's metrics scraped before and after it, and checks its answers.
func (b *serveBench) midStep(d time.Duration, rec *recorder, c *checker) (*openStep, promDelta, error) {
	var prom promDelta
	ops, err := b.nextOps(max(1, int(b.prof.mid()*d.Seconds())))
	if err != nil {
		return nil, prom, err
	}
	if prom.before, err = scrape(b.client, b.base); err != nil {
		return nil, prom, err
	}
	st := b.open(b.prof.mid(), ops, rec)
	if prom.after, err = scrape(b.client, b.base); err != nil {
		return nil, prom, err
	}
	b.checkAll(ops, st.results, c)
	return st, prom, nil
}

// run measures one serve workload: a closed loop with one caller for
// half of d, then one with b.senders callers for the other half.
// ops_per_s is the second loop's throughput (the daemon's capacity);
// the latencies are the lone caller's. A traced run first spends a
// fifth of d on an open-loop step at the mid rate, which feeds the
// server and client per-layer metrics.
func (b *serveBench) run(d time.Duration, rec *recorder) (*measure, error) {
	m := &measure{}
	var mid *openStep
	var prom promDelta
	if rec != nil {
		var err error
		if mid, prom, err = b.midStep(d/5, rec, &m.chk); err != nil {
			return nil, err
		}
		d -= d / 5
		valid := "valid"
		if mid.lag > lagLimit {
			valid = fmt.Sprintf("invalid: generator lag exceeds %v", lagLimit)
		}
		m.notes = append(m.notes, fmt.Sprintf("open loop %.0f/s: p50 %.4gms p%g %.4gms, generator lag p99 %.3gms (%d ops, %s)",
			mid.rate, ms(mid.p50), serveTail*100, ms(mid.tail), ms(mid.lag), len(mid.results), valid))
	}
	lone, err := b.closedStep(d/2, 1, rec, &m.chk)
	if err != nil {
		return nil, err
	}
	p50, tail := windowQuantiles(chunks(lone.lat, tailWindow(serveTail)), serveTail)
	all, err := b.closedStep(d/2, b.senders, rec, &m.chk)
	if err != nil {
		return nil, err
	}

	m.e2e = map[string]float64{
		"ops_per_s":       all.rate,
		"latency_p50_ms":  ms(p50),
		"latency_tail_ms": ms(tail),
		"solved_frac":     ratio(float64(m.chk.attempted-m.chk.failed), float64(m.chk.attempted)),
	}
	m.notes = append(m.notes,
		fmt.Sprintf("closed loop, 1 caller: p50 %.4gms p%g %.4gms (%d ops), host factor %.3f",
			ms(p50), serveTail*100, ms(tail), len(lone.results), lone.factor),
		fmt.Sprintf("closed loop, %d callers: %.0f ops/s (%d ops), host factor %.3f",
			b.senders, all.rate, len(all.results), all.factor))
	if rec != nil {
		m.layer = b.layers(prom, mid)
		m.spans = rec.snapshot()
		if f, err := foldSpans(m.spans); err != nil {
			m.chk.fail(err)
		} else {
			m.layer["trace.self_sum_frac"] = f.layerFrac()
		}
	}
	return m, nil
}

// layers derives the server and client layer metrics of the mid step
// from the daemon's histograms (scraped before and after the step) and
// the generator's own timings.
func (b *serveBench) layers(d promDelta, mid *openStep) map[string]float64 {
	hits, misses := d.counter("server_cache_hits"), d.counter("server_cache_misses")
	L := map[string]float64{
		"server.queue_wait_ms.p50":   d.quantileMS("server_queue_wait", 0.50),
		"server.queue_wait_ms.p99":   d.quantileMS("server_queue_wait", 0.99),
		"server.cache_lookup_ms.p50": d.quantileMS("server_cache_lookup", 0.50),
		"server.cache_hit_ratio":     ratio(hits, hits+misses),
		"server.cache_evictions":     d.counter("server_cache_evictions"),
		"server.stage_ms.bounds":     d.meanMS("server_stage_bounds"),
		"server.stage_ms.heuristic":  d.meanMS("server_stage_heuristic"),
		"server.stage_ms.search":     d.meanMS("server_stage_search"),
		"server.jobs_latency_ms.p99": d.quantileMS("server_jobs_latency", 0.99),
		"server.batch_dedup_ratio":   ratio(d.counter("server_batch_deduped"), d.counter("server_batch_entries")),
	}
	var serverSum float64
	var serverN int64
	for _, ep := range []string{"solve", "minimize_time", "minimize_chip", "solve_batch", "jobs"} {
		h := d.hist("server_latency_" + ep)
		serverSum += h.Sum * 1e3
		serverN += h.Count
		if ep != "jobs" {
			L["server.latency_ms.p99."+ep] = h.Quantile(0.99) * 1e3
		}
	}
	var httpT, connWait, ttfb []time.Duration
	for _, r := range mid.results {
		httpT = append(httpT, r.http...)
		connWait = append(connWait, r.connWait...)
		ttfb = append(ttfb, r.ttfb...)
	}
	var clientSum time.Duration
	for _, t := range httpT {
		clientSum += t
	}
	L["server.unaccounted_ms"] = ratio(ms(clientSum), float64(len(httpT))) - ratio(serverSum, float64(serverN))
	L["client.lag_ms.p99"] = ms(mid.lag)
	L["client.conn_wait_ms.p99"] = ms(percentile(connWait, 0.99))
	L["client.ttfb_ms.p50"] = ms(percentile(ttfb, 0.50))
	return L
}
