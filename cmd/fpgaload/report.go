package main

import "fpga3d/internal/benchgate"

// ServeReportSchema identifies the on-disk serving-load report format;
// bump it on incompatible changes so a stale committed baseline fails
// loudly instead of diffing garbage.
const ServeReportSchema = "fpgaload/serve/v2"

// ServeEntry is the exact outcome of one request kind across the whole
// replay, diffed field by field against the baseline.
type ServeEntry struct {
	// Name identifies the kind ("serve/solve", "serve/batch", …).
	Name string `json:"name"`
	// Count is how many operations of this kind the seeded mix issued —
	// a pure function of the Workload.
	Count int `json:"count"`
	// Errors counts operations that did not complete as expected
	// (network failure, unexpected status, failed batch entries, jobs
	// not reaching "done"). Any error fails the run outright.
	Errors int `json:"errors"`
}

// Workload pins a replay: the per-client op mix is a pure function of
// it, so counts are comparable only between reports of equal Workload.
type Workload struct {
	Seed     int64 `json:"seed"`
	Clients  int   `json:"clients"`
	Requests int   `json:"requests"`
}

// ServeReport is the machine-readable output of one fpgaload run.
type ServeReport struct {
	benchgate.Report[ServeEntry]
	Workload
}
