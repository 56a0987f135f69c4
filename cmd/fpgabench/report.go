package main

import "fpga3d/internal/benchgate"

// ReportSchema identifies the core suite's report format; bump it on
// incompatible changes so a stale committed baseline fails loudly
// instead of diffing garbage.
const ReportSchema = "fpgabench/v2"

// Entry is the exact outcome of one benchmark case. Every field is
// deterministic per case and diffed exactly against the baseline.
type Entry struct {
	// Name identifies the case ("de/opp/32x32x6", "rand/layered/42", …).
	Name string `json:"name"`
	// Kind is the decision flavour: "opp", "mintime" or "minbase".
	Kind string `json:"kind"`
	// Status is the solver outcome ("feasible", "infeasible", or the
	// optimum's decision for optimization cases).
	Status string `json:"status"`
	// Value is the optimum (minimal T or h) for optimization cases.
	Value int `json:"value,omitempty"`
	// Nodes is the branch-and-bound node count.
	Nodes int64 `json:"nodes"`
	// Propagations counts constraint-propagation events.
	Propagations int64 `json:"propagations"`
}

// Report is the machine-readable output of a core suite run.
type Report = benchgate.Report[Entry]
