package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
)

// env stamps a report with what its numbers depend on.
type env struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
}

func envStamp(seed int64) env {
	return env{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Seed:       seed,
	}
}

func (e env) String() string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d cpu=%q go=%s seed=%d", e.GoMaxProcs, e.NProc, e.CPU, e.GoVersion, e.Seed)
}

// cpuModel reads the CPU model name from /proc/cpuinfo, falling back to
// the architecture elsewhere.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, after, ok := strings.Cut(line, ":"); ok {
					return strings.TrimSpace(after)
				}
			}
		}
	}
	return runtime.GOARCH
}
