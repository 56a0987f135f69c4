package main

// metricDef names one reported metric. The lists below must match
// BENCHMARK.json at the repository root (perf_test.go checks this).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the solver or the daemon sees,
// measured with tracing off. Every workload reports every one of them;
// the README says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"solved_frac", "frac", "higher"},
}

// perLayer are the traced run's per-layer numbers, named by module. A
// layer a workload leaves idle reports 0.
var perLayer = []metricDef{
	{"model.decode_us", "us", "lower"},
	{"model.validate_us", "us", "lower"},
	{"model.order_us", "us", "lower"},
	{"model.hash_us", "us", "lower"},
	{"model.verify_us", "us", "lower"},

	{"bounds.ms_per_q", "ms", "lower"},
	{"bounds.decided_frac", "frac", "higher"},
	{"heur.greedy_ms_per_q", "ms", "lower"},
	{"heur.anneal_ms_per_q", "ms", "lower"},
	{"heur.decided_frac", "frac", "higher"},
	{"strategy.incumbent_hits_per_q", "count", "higher"},
	{"strategy.heur_memo_hit_ratio", "frac", "higher"},

	{"solver.probes_per_q", "count", "lower"},
	{"solver.driver_self_ms_per_q", "ms", "lower"},
	{"solver.stage_sum_frac", "frac", "higher"},

	{"core.nodes_per_q", "count", "lower"},
	{"core.props_per_q", "count", "lower"},
	{"core.search_ms_per_q", "ms", "lower"},
	{"core.nodes_per_s", "1/s", "higher"},
	{"core.props_per_node", "count", "lower"},
	{"core.leaf_accept_ratio", "frac", "higher"},
	{"core.conflicts_per_q.c3", "count", "higher"},
	{"core.conflicts_per_q.size", "count", "higher"},
	{"core.conflicts_per_q.clique", "count", "higher"},
	{"core.conflicts_per_q.area", "count", "higher"},
	{"core.conflicts_per_q.c4", "count", "higher"},
	{"core.conflicts_per_q.hole", "count", "higher"},
	{"core.conflicts_per_q.orient", "count", "higher"},
	{"core.steals_per_q", "count", "lower"},

	{"server.queue_wait_ms.p50", "ms", "lower"},
	{"server.queue_wait_ms.p99", "ms", "lower"},
	{"server.cache_lookup_ms.p50", "ms", "lower"},
	{"server.cache_hit_ratio", "frac", "higher"},
	{"server.cache_evictions", "count", "lower"},
	{"server.stage_ms.bounds", "ms", "lower"},
	{"server.stage_ms.heuristic", "ms", "lower"},
	{"server.stage_ms.search", "ms", "lower"},
	{"server.latency_ms.p99.solve", "ms", "lower"},
	{"server.latency_ms.p99.minimize_time", "ms", "lower"},
	{"server.latency_ms.p99.minimize_chip", "ms", "lower"},
	{"server.latency_ms.p99.solve_batch", "ms", "lower"},
	{"server.jobs_latency_ms.p99", "ms", "lower"},
	{"server.batch_dedup_ratio", "frac", "higher"},
	{"server.unaccounted_ms", "ms", "lower"},

	{"client.lag_ms.p99", "ms", "lower"},
	{"client.conn_wait_ms.p99", "ms", "lower"},
	{"client.ttfb_ms.p50", "ms", "lower"},

	{"online.tier_share.free_rect", "frac", "higher"},
	{"online.tier_share.slot", "frac", "higher"},
	{"online.tier_share.cache", "frac", "higher"},
	{"online.tier_share.repack", "frac", "higher"},
	{"online.tier_share.probe", "frac", "lower"},
	{"online.tier_p99_us.free_rect", "us", "lower"},
	{"online.tier_p99_us.slot", "us", "lower"},
	{"online.tier_p99_us.cache", "us", "lower"},
	{"online.tier_p99_us.repack", "us", "lower"},
	{"online.tier_p99_us.probe", "us", "lower"},
	{"online.probe_nodes_per_admit", "count", "lower"},
	{"online.depart_us.p50", "us", "lower"},
	{"online.defrag_us.p50", "us", "lower"},
	{"online.defrag_moves_per_admit", "count", "lower"},
	{"online.reject_ratio", "frac", "lower"},

	{"trace.overhead_frac", "frac", "lower"},
	{"trace.self_sum_frac", "frac", "higher"},
}

// onlineTiers are the admission ladder's tiers in ladder order, keyed
// the way AdmitResult.DecidedBy names them, with their metric suffix.
var onlineTiers = []struct{ decidedBy, metric string }{
	{"free-rect", "free_rect"},
	{"slot", "slot"},
	{"cache", "cache"},
	{"repack", "repack"},
	{"probe", "probe"},
}

// workloads lists the benchmark's workloads in run order. Each runs
// one layer hard and leaves another idle; the README records why.
var workloads = []workload{
	{name: "paper-sweeps", setup: setupPaper},
	{name: "search-frontier", setup: setupFrontier},
	{name: "serve-hot", setup: setupServeHot},
	{name: "serve-cold", setup: setupServeCold},
	{name: "online-churn", setup: setupOnline},
}
