package heur

import (
	"testing"

	"fpga3d/internal/model"
)

// TestRuleOrderPinned pins the priority-rule set: its size, its trial
// order, and its names. The greedy placer's answers depend on this
// order (ties between rules are broken by whichever ran first), so a
// reorder silently changes reproducible results — this test makes
// that a loud failure instead.
func TestRuleOrderPinned(t *testing.T) {
	want := []Rule{RuleTail, RuleArea, RuleVolume, RuleDuration}
	got := Rules()
	if len(got) != len(want) {
		t.Fatalf("Rules() has %d entries, want %d", len(got), len(want))
	}
	names := []string{"tail", "area", "volume", "duration"}
	for i, r := range got {
		if r != want[i] {
			t.Errorf("Rules()[%d] = %v, want %v", i, r, want[i])
		}
		if r.String() != names[i] {
			t.Errorf("Rules()[%d].String() = %q, want %q", i, r.String(), names[i])
		}
	}
	if Rule(-1).String() != "unknown" || Rule(len(got)).String() != "unknown" {
		t.Errorf("out-of-range rules must stringify as unknown")
	}
}

// TestRulesReturnsCopy: mutating the returned slice must not corrupt
// later calls.
func TestRulesReturnsCopy(t *testing.T) {
	a := Rules()
	a[0] = Rule(99)
	if b := Rules(); b[0] != RuleTail {
		t.Fatalf("Rules() shares state across calls: got %v", b[0])
	}
}

// TestRuleKeysMatchGreedy checks each exported rule drives the list
// scheduler to a valid schedule on a small precedence-bearing
// instance, and that bestPlacement equals the minimum over rules —
// i.e. the exported table is exactly the set the greedy placer tries.
func TestRuleKeysMatchGreedy(t *testing.T) {
	in := &model.Instance{
		Name: "rules-greedy",
		Tasks: []model.Task{
			{Name: "a", W: 2, H: 2, Dur: 3},
			{Name: "b", W: 3, H: 1, Dur: 2},
			{Name: "c", W: 1, H: 3, Dur: 4},
			{Name: "d", W: 2, H: 1, Dur: 1},
		},
		Prec: []model.Arc{{From: 0, To: 2}, {From: 1, To: 3}},
	}
	o, err := in.Order()
	if err != nil {
		t.Fatal(err)
	}
	W, H := 4, 4
	horizon := in.TotalDuration()
	bestOver := horizon + 1
	for _, r := range Rules() {
		p, mk, ok := newScheduler(in, W, H, horizon, o).run(horizon, func(v int) (int, int, int) { return r.key(in, o, v) })
		if !ok {
			t.Fatalf("rule %v: schedule failed", r)
		}
		if err := p.Verify(in, model.Container{W: W, H: H, T: horizon}, o); err != nil {
			t.Fatalf("rule %v: invalid schedule: %v", r, err)
		}
		if mk < bestOver {
			bestOver = mk
		}
	}
	_, mk, ok := MinMakespan(in, W, H, o)
	if !ok || mk != bestOver {
		t.Fatalf("MinMakespan = %d (ok=%v), want best-over-rules %d", mk, ok, bestOver)
	}
}
