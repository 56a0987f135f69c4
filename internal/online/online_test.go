package online

import (
	"context"
	"sync"
	"testing"

	"fpga3d/internal/obs"
)

func mustSession(t *testing.T, cfg Config) *Session {
	t.Helper()
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// advance moves the session clock forward to cycle to, as every
// session call does first.
func advance(s *Session, to int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(to)
}

func mustAdmit(t *testing.T, s *Session, req AdmitRequest) *AdmitResult {
	t.Helper()
	res, err := s.Admit(context.Background(), req)
	if err != nil {
		t.Fatalf("Admit(%+v): %v", req, err)
	}
	return res
}

func TestAdmitDepartLifecycle(t *testing.T) {
	s := mustSession(t, Config{W: 8, H: 8})

	a := mustAdmit(t, s, AdmitRequest{Name: "a", W: 4, H: 8, Dur: 10})
	if a.Decision != DecisionPlaced || a.DecidedBy != "free-rect" {
		t.Fatalf("first admit = %s by %s, want placed by free-rect", a.Decision, a.DecidedBy)
	}
	b := mustAdmit(t, s, AdmitRequest{Name: "b", W: 4, H: 8, Dur: 4})
	if b.Decision != DecisionPlaced {
		t.Fatalf("second admit = %s, want placed", b.Decision)
	}
	snap := s.State(0)
	if len(snap.Residents) != 2 || snap.Free.FreeCells != 0 {
		t.Fatalf("snapshot: %d residents, %d free cells, want 2 and 0", len(snap.Residents), snap.Free.FreeCells)
	}

	// b finishes at cycle 4; the vacated half must be coalesced back
	// into one maximal free rectangle.
	advance(s, 5)
	snap = s.State(5)
	if len(snap.Residents) != 1 || snap.Free.FreeCells != 32 {
		t.Fatalf("after expiry: %d residents, %d free cells, want 1 and 32", len(snap.Residents), snap.Free.FreeCells)
	}
	if snap.Free.Fragmentation != 0 {
		t.Fatalf("after expiry fragmentation %v, want 0 (one coalesced rect)", snap.Free.Fragmentation)
	}
	if snap.Counters.Expired != 1 {
		t.Fatalf("expired counter %d, want 1", snap.Counters.Expired)
	}

	// Early departure of a frees the whole array.
	if err := s.Depart(a.ID, 6); err != nil {
		t.Fatal(err)
	}
	if err := s.Depart(a.ID, 6); err == nil {
		t.Fatal("double departure should fail with ErrNotFound")
	}
	if free := s.State(6).Free.FreeCells; free != 64 {
		t.Fatalf("after departures: %d free cells, want 64", free)
	}
}

func TestAdmitValidation(t *testing.T) {
	s := mustSession(t, Config{W: 4, H: 4})
	if _, err := s.Admit(context.Background(), AdmitRequest{W: 0, H: 2, Dur: 1}); err == nil {
		t.Fatal("zero width must be rejected with an error")
	}
	if _, err := s.Admit(context.Background(), AdmitRequest{W: 5, H: 2, Dur: 1}); err == nil {
		t.Fatal("module wider than the device must be rejected with an error")
	}
	if _, err := NewSession(Config{W: 0, H: 3}); err == nil {
		t.Fatal("non-positive device must be rejected")
	}
}

// fragmentSession loads three full-height columns (3+2+3 wide) and
// departs the outer two, leaving the 2-wide column stranded in the
// middle of an 8×8 array: 6 columns free, but no 4-wide rectangle.
func fragmentSession(t *testing.T, dur int) (*Session, int) {
	t.Helper()
	s := mustSession(t, Config{W: 8, H: 8})
	a := mustAdmit(t, s, AdmitRequest{Name: "a", W: 3, H: 8, Dur: dur})
	b := mustAdmit(t, s, AdmitRequest{Name: "b", W: 2, H: 8, Dur: dur})
	c := mustAdmit(t, s, AdmitRequest{Name: "c", W: 3, H: 8, Dur: dur})
	if err := s.Depart(a.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Depart(c.ID, 0); err != nil {
		t.Fatal(err)
	}
	if lw := s.State(0).Free.LargestW; lw != 3 {
		t.Fatalf("fragmented layout: largest free width %d, want 3", lw)
	}
	return s, b.ID
}

func TestAdmitDefragRelocation(t *testing.T) {
	s, bID := fragmentSession(t, 20)

	// A 4×8 module fits only after relocating b: the admission must
	// come back as a validated single-move defrag.
	res := mustAdmit(t, s, AdmitRequest{Name: "d", W: 4, H: 8, Dur: 10})
	if res.Decision != DecisionDefrag {
		t.Fatalf("admit = %s by %s, want defrag", res.Decision, res.DecidedBy)
	}
	if len(res.Moves) != 1 || res.Moves[0].ID != bID {
		t.Fatalf("moves %+v, want exactly one move of b (id %d)", res.Moves, bID)
	}
	if res.Plan == nil {
		t.Fatal("defrag admission must carry its plan")
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatalf("plan replay through fpga.Simulate failed: %v", err)
	}
	snap := s.State(0)
	if len(snap.Residents) != 2 {
		t.Fatalf("%d residents after defrag admit, want 2", len(snap.Residents))
	}
	if snap.Counters.Defrags != 1 || snap.Counters.Moves != 1 {
		t.Fatalf("counters defrags=%d moves=%d, want 1/1", snap.Counters.Defrags, snap.Counters.Moves)
	}
}

func TestAdmitRejectedProvenAndCached(t *testing.T) {
	s := mustSession(t, Config{W: 8, H: 8})
	mustAdmit(t, s, AdmitRequest{Name: "big", W: 8, H: 7, Dur: 50})

	res := mustAdmit(t, s, AdmitRequest{Name: "x", W: 2, H: 2, Dur: 5})
	if res.Decision != DecisionRejected || res.DecidedBy != "probe" {
		t.Fatalf("first reject = %s by %s, want rejected by probe", res.Decision, res.DecidedBy)
	}
	// The identical static problem must now be answered from the probe
	// cache without searching again.
	res = mustAdmit(t, s, AdmitRequest{Name: "x", W: 2, H: 2, Dur: 5})
	if res.Decision != DecisionRejected || res.DecidedBy != "cache" {
		t.Fatalf("second reject = %s by %s, want rejected by cache", res.Decision, res.DecidedBy)
	}
	if c := s.Counters(); c.ByCache != 1 || c.Rejected != 2 {
		t.Fatalf("counters %+v, want ByCache 1 and Rejected 2", c)
	}
}

func TestMoveBoundRejectsAndCachesWitness(t *testing.T) {
	s, _ := fragmentSession(t, 20)
	s.cfg.MaxMoves = -1 // forbid relocation entirely

	res := mustAdmit(t, s, AdmitRequest{Name: "d", W: 4, H: 8, Dur: 10})
	if res.Decision != DecisionRejected || res.DecidedBy != "move-bound" {
		t.Fatalf("admit = %s by %s, want rejected by move-bound", res.Decision, res.DecidedBy)
	}
	// The feasibility witness was cached anyway: the retry must reach
	// the same verdict through the cache tier's witness remap.
	res = mustAdmit(t, s, AdmitRequest{Name: "d", W: 4, H: 8, Dur: 10})
	if res.Decision != DecisionRejected {
		t.Fatalf("retry = %s, want rejected", res.Decision)
	}
	if c := s.Counters(); c.ByCache != 1 {
		t.Fatalf("ByCache %d, want 1 (witness served from cache)", c.ByCache)
	}
	// Restoring the budget admits with exactly one move.
	s.cfg.MaxMoves = 16
	res = mustAdmit(t, s, AdmitRequest{Name: "d", W: 4, H: 8, Dur: 10})
	if res.Decision != DecisionDefrag || len(res.Moves) != 1 {
		t.Fatalf("admit = %s with %d moves, want defrag with 1", res.Decision, len(res.Moves))
	}
	if res.DecidedBy != "cache" {
		t.Fatalf("decided by %s, want cache (witness reuse)", res.DecidedBy)
	}
}

func TestDeadlineReservesFutureStart(t *testing.T) {
	s := mustSession(t, Config{W: 8, H: 8})
	mustAdmit(t, s, AdmitRequest{Name: "a", W: 8, H: 8, Dur: 5})

	// No room now; with slack the slot finder reserves the start right
	// after a finishes.
	res := mustAdmit(t, s, AdmitRequest{Name: "b", W: 2, H: 2, Dur: 3, Deadline: 10})
	if res.Decision != DecisionPlaced || res.DecidedBy != "slot" {
		t.Fatalf("admit = %s by %s, want placed by slot", res.Decision, res.DecidedBy)
	}
	if res.Start != 5 {
		t.Fatalf("reserved start %d, want 5 (right after a finishes)", res.Start)
	}
	// Without slack the same module is rejected outright — and the
	// rejection is exact, not a heuristic miss.
	res = mustAdmit(t, s, AdmitRequest{Name: "c", W: 2, H: 2, Dur: 3})
	if res.Decision != DecisionRejected {
		t.Fatalf("admit-now = %s, want rejected", res.Decision)
	}
	// Advance past a's finish: the reservation activates.
	snap := s.State(6)
	if len(snap.Residents) != 1 || snap.Free.FreeCells != 60 {
		t.Fatalf("after activation: %d residents, %d free, want 1 and 60", len(snap.Residents), snap.Free.FreeCells)
	}
}

func TestExplicitDefragCompacts(t *testing.T) {
	s, bID := fragmentSession(t, 20)

	plan, err := s.Defrag(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 1 || plan.Moves[0].ID != bID {
		t.Fatalf("defrag moves %+v, want one move of id %d", plan.Moves, bID)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("defrag plan replay failed: %v", err)
	}
	snap := s.State(0)
	if snap.Free.LargestW != 6 {
		t.Fatalf("largest free width after defrag %d, want 6", snap.Free.LargestW)
	}
	// A second defrag on the compact layout must be a no-op.
	plan, err = s.Defrag(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 0 {
		t.Fatalf("second defrag moved %d modules, want no-op", len(plan.Moves))
	}
	if c := s.Counters(); c.Defrags != 1 {
		t.Fatalf("defrag counter %d, want 1", c.Defrags)
	}
}

func TestSessionEventsAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	var phases []string
	s := mustSession(t, Config{W: 8, H: 8, Metrics: reg, Events: func(sn obs.Snapshot) {
		mu.Lock()
		phases = append(phases, sn.Phase)
		mu.Unlock()
	}})
	a := mustAdmit(t, s, AdmitRequest{Name: "a", W: 8, H: 8, Dur: 9})
	mustAdmit(t, s, AdmitRequest{Name: "b", W: 1, H: 1, Dur: 2})
	if err := s.Depart(a.ID, 1); err != nil {
		t.Fatal(err)
	}
	want := []string{"admit:placed", "admit:rejected", "depart"}
	mu.Lock()
	defer mu.Unlock()
	if len(phases) != len(want) {
		t.Fatalf("event phases %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("event phases %v, want %v", phases, want)
		}
	}
	if reg.Snapshot()["online.probe.exact"] != 1 {
		t.Fatalf("metrics %v, want one exact probe", reg.Snapshot())
	}
}

func TestConcurrentSessionAccess(t *testing.T) {
	// The node limit keeps saturated-array probes cheap: this test is
	// about locking, not about exact answers.
	s := mustSession(t, Config{W: 16, H: 16, ProbeNodeLimit: 500})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := s.Admit(context.Background(), AdmitRequest{W: 1 + i%4, H: 1 + (i+g)%4, Dur: 2 + i%5})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Decision == DecisionPlaced && i%3 == 0 {
					_ = s.Depart(res.ID, 0)
				}
				_ = s.State(0)
			}
		}(g)
	}
	wg.Wait()
	advance(s, 1<<20)
	if n := len(s.State(1 << 20).Residents); n != 0 {
		t.Fatalf("%d residents after the far future, want 0", n)
	}
}
