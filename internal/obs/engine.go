package obs

// Metric names published by the solving layer (internal/solver) for the
// packing-class engine. Counters accumulate across OPP decisions;
// live gauges are refreshed on the engine's node cadence while a search
// is running.
const (
	// MetricSearchNodes counts branch-and-bound nodes entered, summed
	// over all OPP decisions of a run. Deterministic per instance —
	// cmd/fpgabench diffs it exactly against its committed baseline.
	MetricSearchNodes = "search.nodes"
	// MetricSearchPropagations counts constraint-propagation events
	// processed (Stats.Propagations), summed over all OPP decisions.
	MetricSearchPropagations = "search.propagations"
	// MetricSearchLiveNodes gauges the node count of the search in
	// flight, updated once per 256 nodes.
	MetricSearchLiveNodes = "search.live_nodes"
	// MetricSearchLiveDepth gauges the deepest level reached by the
	// search in flight.
	MetricSearchLiveDepth = "search.live_depth"
	// MetricProbePanics counts raced sweep probes that panicked; each
	// one fails its sweep with an error instead of the process.
	MetricProbePanics = "solver.probe_panics"
)
