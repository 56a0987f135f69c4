package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestPrinterThrottlesAndPrintsPhaseChanges(t *testing.T) {
	var buf bytes.Buffer
	p := NewPrinter(&buf, time.Hour) // throttle everything but phase changes
	p(Snapshot{Phase: PhaseBounds})
	p(Snapshot{Phase: PhaseSearch, Nodes: 512, MaxDepth: 9,
		NodesPerSec: 1000, Elapsed: time.Second,
		Conflicts: map[string]int64{"c4": 2, "clique": 3}})
	p(Snapshot{Phase: PhaseSearch, Nodes: 1024}) // throttled: same phase, too soon
	out := buf.String()
	if got := strings.Count(out, "\r"); got != 2 {
		t.Fatalf("printed %d lines, want 2:\n%q", got, out)
	}
	if !strings.Contains(out, "bounds") || !strings.Contains(out, "search") {
		t.Errorf("missing phases in %q", out)
	}
	if !strings.Contains(out, "512") || !strings.Contains(out, "conflicts 5") {
		t.Errorf("missing counters in %q", out)
	}
	if strings.Contains(out, "1024") {
		t.Errorf("throttled snapshot leaked into %q", out)
	}
}

// TestPrinterThrottleWithClock drives the throttle with an injected
// clock: at most one render per interval, same-phase snapshots inside
// the window are suppressed, and the first snapshot past the window
// renders again.
func TestPrinterThrottleWithClock(t *testing.T) {
	var buf bytes.Buffer
	now := time.Unix(0, 0)
	p := newPrinterWithClock(&buf, time.Second, func() time.Time { return now })

	p.Observe(Snapshot{Phase: PhaseSearch, Nodes: 1}) // renders: first snapshot
	now = now.Add(300 * time.Millisecond)
	p.Observe(Snapshot{Phase: PhaseSearch, Nodes: 2}) // suppressed: inside interval
	now = now.Add(300 * time.Millisecond)
	p.Observe(Snapshot{Phase: PhaseSearch, Nodes: 3}) // suppressed
	now = now.Add(500 * time.Millisecond)             // 1.1s since last render
	p.Observe(Snapshot{Phase: PhaseSearch, Nodes: 4}) // renders

	out := buf.String()
	if got := strings.Count(out, "\r"); got != 2 {
		t.Fatalf("rendered %d lines in one interval + one, want 2:\n%q", got, out)
	}
	if !strings.Contains(out, "nodes 1") || !strings.Contains(out, "nodes 4") {
		t.Errorf("wrong snapshots rendered: %q", out)
	}
	if strings.Contains(out, "nodes 2") || strings.Contains(out, "nodes 3") {
		t.Errorf("throttled snapshot leaked: %q", out)
	}
}

// TestPrinterFlush asserts the final snapshot is always recoverable:
// when the throttle suppressed the last Observe, Flush renders it; when
// the last Observe already rendered, Flush adds nothing.
func TestPrinterFlush(t *testing.T) {
	var buf bytes.Buffer
	now := time.Unix(0, 0)
	p := newPrinterWithClock(&buf, time.Hour, func() time.Time { return now })

	p.Observe(Snapshot{Phase: PhaseSearch, Nodes: 10}) // renders
	p.Observe(Snapshot{Phase: PhaseSearch, Nodes: 99}) // suppressed: the final state
	p.Flush()
	out := buf.String()
	if !strings.Contains(out, "nodes 99") {
		t.Fatalf("final snapshot not flushed: %q", out)
	}
	if got := strings.Count(out, "\r"); got != 2 {
		t.Fatalf("rendered %d lines, want 2: %q", got, out)
	}

	p.Flush() // nothing pending: no extra line
	if got := strings.Count(buf.String(), "\r"); got != 2 {
		t.Errorf("idle Flush rendered a line: %q", buf.String())
	}

	// Flush on a printer that never observed anything is silent.
	var empty bytes.Buffer
	newPrinterWithClock(&empty, time.Second, func() time.Time { return now }).Flush()
	if empty.Len() != 0 {
		t.Errorf("empty printer flushed %q", empty.String())
	}
}

func TestSnapshotTotalConflicts(t *testing.T) {
	s := Snapshot{Conflicts: map[string]int64{"c3": 1, "gamma": 4}}
	if s.TotalConflicts() != 5 {
		t.Errorf("TotalConflicts = %d", s.TotalConflicts())
	}
	if (Snapshot{}).TotalConflicts() != 0 {
		t.Error("empty snapshot has conflicts")
	}
}
