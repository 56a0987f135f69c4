package strategy

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
)

// TestIncumbentsRaceStress hammers one Incumbents store the way an
// anytime run does: racing probes offering witnesses and looking up
// dominance/memos concurrently with a background refiner that keeps
// recording strictly improving incumbents. Run under -race (the CI
// race set includes this package), this is the contention profile the
// anytime tier introduces — before it, the store only saw a few
// concurrent sweep probes.
func TestIncumbentsRaceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := bench.Random(rng, 10, 3, 4, 0.3)
	order, err := in.Order()
	if err != nil {
		t.Fatal(err)
	}
	s := NewIncumbents()
	ctx := context.Background()

	var wg sync.WaitGroup
	var stop atomic.Bool

	// Background refiner: records a stream of strictly improving
	// witnesses for one chip, the way the anytime driver feeds
	// annealing and search incumbents back into the store.
	wg.Add(1)
	go func() {
		defer wg.Done()
		pl, mk, ok, _ := s.MinMakespan(in, 8, 8, order)
		if !ok {
			return
		}
		for better := mk + 20; better >= mk && !stop.Load(); better-- {
			w := pl.Clone()
			// Shift the last task later to vary the bounding box the
			// dominance pruner sees; the store only reads coordinates.
			w.S[in.N()-1] = better - in.Tasks[in.N()-1].Dur
			s.RecordWitness(in, w, "refiner")
		}
	}()

	// Racing probes: concurrent memo lookups (greedy and anneal),
	// witness offers, and dominance queries across many footprints.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				w := 4 + (g+i)%5
				if _, _, ok, _ := s.MinMakespan(in, w, w, order); ok {
					if pl, mk, ok, _ := s.Anneal(ctx, in, w, w, order, int64(g+1)); ok {
						_ = mk
						s.RecordWitness(in, pl, "anneal")
					}
				}
				s.Dominating(model.Container{W: w, H: w, T: 10 + i%7})
				s.HeurStats()
				s.Witnesses()
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)

	// The store must have converged to a consistent state: every
	// surviving witness verifies on a container matching its own
	// bounding box, and none dominates another (the pruner's
	// invariant).
	if n := s.Witnesses(); n < 1 {
		t.Fatalf("Witnesses() = %d, want ≥ 1", n)
	}
	s.mu.Lock()
	wits := append([]witnessEntry(nil), s.wits...)
	s.mu.Unlock()
	for i, e := range wits {
		c := model.Container{W: e.w, H: e.h, T: e.mk}
		if err := e.place.Verify(in, c, order); err != nil {
			t.Errorf("witness %d (%s) invalid on its own bounding box: %v", i, e.source, err)
		}
		for j, f := range wits {
			if i != j && e.w <= f.w && e.h <= f.h && e.mk <= f.mk {
				t.Errorf("witness %d dominates surviving witness %d", i, j)
			}
		}
	}
}

// TestIncumbentsAnnealMemoDeterministic: concurrent Anneal calls on
// one footprint must all observe the same schedule — the memo's
// "duplicate compute stores the same entry" contract depends on the
// annealer's per-seed determinism.
func TestIncumbentsAnnealMemoDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := bench.Random(rng, 9, 3, 4, 0.3)
	order, err := in.Order()
	if err != nil {
		t.Fatal(err)
	}
	s := NewIncumbents()
	ctx := context.Background()
	const goroutines = 6
	mks := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, mk, ok, _ := s.Anneal(ctx, in, 7, 7, order, 42)
			if !ok {
				t.Errorf("goroutine %d: anneal failed", g)
				return
			}
			mks[g] = mk
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if mks[g] != mks[0] {
			t.Fatalf("concurrent anneal memo returned different makespans: %v", mks)
		}
	}
	// A later call is a memo hit.
	if _, _, _, hit := s.Anneal(ctx, in, 7, 7, order, 42); !hit {
		t.Error("second Anneal call on the same footprint was not a memo hit")
	}
}
