package core

import (
	"reflect"
	"testing"
	"time"

	"fpga3d/internal/obs"
)

// TestStatsAddCoversAllFields fills every field of a Stats with a
// distinct nonzero value by reflection and asserts Add carries each of
// them over — so a counter added later (e.g. for a new rule) cannot be
// silently dropped from aggregation.
func TestStatsAddCoversAllFields(t *testing.T) {
	var o Stats
	ov := reflect.ValueOf(&o).Elem()
	for i := 0; i < ov.NumField(); i++ {
		if ov.Field(i).Kind() != reflect.Int && ov.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("field %s has kind %v; extend this test and Stats.Add for it",
				ov.Type().Field(i).Name, ov.Field(i).Kind())
		}
		ov.Field(i).SetInt(int64(i + 1))
	}

	var s Stats
	s.Add(o)
	sv := reflect.ValueOf(&s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if got, want := sv.Field(i).Int(), int64(i+1); got != want {
			t.Errorf("field %s not accumulated by Add: got %d, want %d",
				sv.Type().Field(i).Name, got, want)
		}
	}

	// A second Add doubles every additive counter; MaxDepth is a
	// maximum and must stay put.
	s.Add(o)
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		want := int64(2 * (i + 1))
		if name == "MaxDepth" {
			want = int64(i + 1)
		}
		if got := sv.Field(i).Int(); got != want {
			t.Errorf("field %s after second Add: got %d, want %d", name, got, want)
		}
	}
}

// TestStatsByRuleMaps: the reflection-built maps cover exactly the
// prefixed counters, with lower-cased rule keys.
func TestStatsByRuleMaps(t *testing.T) {
	s := Stats{ConflictC3: 1, ConflictGamma: 2, ForcedSize: 3, RejectChordal: 4, Nodes: 99}
	conf := s.ConflictsByRule()
	if conf["c3"] != 1 || conf["gamma"] != 2 {
		t.Errorf("ConflictsByRule = %v", conf)
	}
	if len(conf) != 7 {
		t.Errorf("ConflictsByRule has %d rules, want 7: %v", len(conf), conf)
	}
	if f := s.ForcedByRule(); f["size"] != 3 || len(f) != 6 {
		t.Errorf("ForcedByRule = %v", f)
	}
	if r := s.RejectsByReason(); r["chordal"] != 4 || len(r) != 4 {
		t.Errorf("RejectsByReason = %v", r)
	}
	// Prefixed-field counts must track the struct definition.
	rt := reflect.TypeOf(s)
	counts := map[string]int{}
	for i := 0; i < rt.NumField(); i++ {
		for _, p := range []string{"Conflict", "Forced", "Reject"} {
			n := rt.Field(i).Name
			if len(n) > len(p) && n[:len(p)] == p {
				counts[p]++
			}
		}
	}
	if len(s.ConflictsByRule()) != counts["Conflict"] ||
		len(s.ForcedByRule()) != counts["Forced"] ||
		len(s.RejectsByReason()) != counts["Reject"] {
		t.Errorf("ByRule maps out of sync with Stats fields: %v", counts)
	}
}

// TestProgressHookCadence drives checkLimits directly: the hook fires
// exactly once per 256 ticks, with the engine's counters in the
// snapshot.
func TestProgressHookCadence(t *testing.T) {
	var got []obs.Snapshot
	p := prob(2, [3]int{4, 4, 4}, uniformSizes(2, 2, 2), true)
	e := newEngine(p, Options{Progress: func(s obs.Snapshot) { got = append(got, s) }})
	e.start = time.Now().Add(-time.Second)
	e.stats.Nodes = 512
	e.stats.MaxDepth = 7
	e.stats.ConflictC4 = 3
	e.stats.ConflictClique = 2
	for i := 0; i < 512; i++ {
		if !e.checkLimits() {
			t.Fatal("checkLimits aborted without limits")
		}
	}
	if len(got) != 2 {
		t.Fatalf("hook fired %d times over 512 ticks, want 2", len(got))
	}
	s := got[0]
	if s.Phase != obs.PhaseSearch {
		t.Errorf("phase %q, want search", s.Phase)
	}
	if s.Nodes != 512 || s.MaxDepth != 7 {
		t.Errorf("snapshot counters %+v", s)
	}
	if s.Conflicts["c4"] != 3 || s.Conflicts["clique"] != 2 {
		t.Errorf("snapshot conflicts %v", s.Conflicts)
	}
	if s.Elapsed < time.Second || s.NodesPerSec <= 0 || s.NodesPerSec > 600 {
		t.Errorf("elapsed %v, nodes/s %f", s.Elapsed, s.NodesPerSec)
	}
}

// TestProgressPhaseLabel: ProgressPhase overrides the default label.
func TestProgressPhaseLabel(t *testing.T) {
	var phases []string
	p := prob(2, [3]int{4, 4, 4}, uniformSizes(2, 2, 2), true)
	e := newEngine(p, Options{
		ProgressPhase: "custom",
		Progress:      func(s obs.Snapshot) { phases = append(phases, s.Phase) },
	})
	e.emitProgress()
	if len(phases) != 1 || phases[0] != "custom" {
		t.Fatalf("phases = %v", phases)
	}
}
