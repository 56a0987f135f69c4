package bounds

import (
	"fmt"
	"strings"
	"time"

	"fpga3d/internal/model"
)

// Report breaks a makespan lower bound into its constituent bounds, for
// diagnostics and the experiment write-ups: which of the stage-1 bounds
// is binding for a given chip?
type Report struct {
	CriticalPath  int
	MaxDuration   int
	Volume        int // ⌈volume / (W·H)⌉
	Serialization int
	Energetic     int // largest T refuted, plus one (0 if nothing refuted)
	// Best is the maximum of the components — the value MinTimeLB
	// returns.
	Best int
	// Timings records the wall-clock cost of each component bound —
	// stage-1 effort data for the observability layer (the cheap
	// critical-path/max-duration/volume bounds are timed together).
	Timings ReportTimings
}

// ReportTimings is the per-bound wall-clock breakdown of a Report.
// Durations serialize as integer nanoseconds in JSON traces.
type ReportTimings struct {
	Simple        time.Duration `json:"simple_ns"`        // critical path, max duration, volume
	Serialization time.Duration `json:"serialization_ns"` // clique serialization bound
	Energetic     time.Duration `json:"energetic_ns"`     // energetic-reasoning binary search
	Total         time.Duration `json:"total_ns"`
}

// String renders the report as a one-line summary with the binding
// bound marked.
func (r Report) String() string {
	parts := []struct {
		name  string
		value int
	}{
		{"critical-path", r.CriticalPath},
		{"max-duration", r.MaxDuration},
		{"volume", r.Volume},
		{"serialization", r.Serialization},
		{"energetic", r.Energetic},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "T ≥ %d (", r.Best)
	for i, p := range parts {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %d", p.name, p.value)
		if p.value == r.Best {
			b.WriteString("*")
		}
	}
	b.WriteString(")")
	return b.String()
}

// MinTimeReport computes the per-bound breakdown of the makespan lower
// bound for a W×H chip.
func MinTimeReport(in *model.Instance, W, H int, o *model.Order) Report {
	t0 := time.Now()
	r := Report{CriticalPath: o.CriticalPath()}
	for _, t := range in.Tasks {
		if t.Dur > r.MaxDuration {
			r.MaxDuration = t.Dur
		}
	}
	r.Volume = CeilDiv(in.Volume(), SatMul(W, H))
	t1 := time.Now()
	r.Timings.Simple = t1.Sub(t0)
	r.Serialization = SerializationMinT(in, W, H, o)
	t2 := time.Now()
	r.Timings.Serialization = t2.Sub(t1)

	// Energetic component, isolated: binary search as in MinTimeLB but
	// starting from 1.
	lo, hi := 0, in.TotalDuration()+o.CriticalPath()+1
	if energeticInfeasible(in, W, H, lo+1, o) {
		lo++
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if energeticInfeasible(in, W, H, mid, o) {
				lo = mid
			} else {
				hi = mid
			}
		}
		r.Energetic = lo + 1
	}
	r.Timings.Energetic = time.Since(t2)
	r.Timings.Total = time.Since(t0)

	r.Best = r.CriticalPath
	for _, v := range []int{r.MaxDuration, r.Volume, r.Serialization, r.Energetic} {
		if v > r.Best {
			r.Best = v
		}
	}
	return r
}
