package heur

import (
	"context"
	"math"
	"math/rand"

	"fpga3d/internal/model"
)

// AnnealOptions configure the randomized annealing placer. The zero
// value is ready to use: seed 1, a default iteration budget, and one
// restart per priority rule.
type AnnealOptions struct {
	// Seed drives every random choice. Runs are deterministic per
	// seed: the same (instance, chip, options) always yields the same
	// schedule and the same OnImprove sequence. Zero means seed 1.
	Seed int64
	// Iterations is the number of perturbation proposals per restart.
	// Zero means DefaultAnnealIterations.
	Iterations int
	// Restarts is the number of independent annealing walks; restart i
	// starts from the ordering of Rules()[i mod len(Rules())], with
	// random jitter after the first cycle through the rules. Zero
	// means one restart per rule.
	Restarts int
	// Target, when positive, stops the search as soon as the best
	// makespan is ≤ Target (typically a proven lower bound: reaching
	// it certifies optimality, so further effort is wasted).
	Target int
	// OnImprove, when non-nil, is called with each new best placement
	// as it is found, including the initial greedy schedule. The
	// placement must not be mutated by the callback.
	OnImprove func(p *model.Placement, makespan int)
}

// DefaultAnnealIterations is the per-restart proposal budget used when
// AnnealOptions.Iterations is zero.
const DefaultAnnealIterations = 256

// DefaultAnnealProposals is the proposal count of a default annealing
// walk: one restart per priority rule, DefaultAnnealIterations
// proposals each. It is an int64 to compare against search node
// counts.
const DefaultAnnealProposals = int64(len(ruleNames) * DefaultAnnealIterations)

// AnnealMinMakespan minimizes the makespan of in on a W×H chip by
// simulated annealing over task-priority permutations, decoding each
// permutation with the same occupancy-grid list scheduler the greedy
// rules use. It starts from the best greedy schedule (so the result is
// never worse than MinMakespan's) and is deterministic per
// opt.Seed. ok is false only if some task does not fit the chip
// spatially. A canceled ctx stops the walk early and returns the best
// schedule found so far; ctx may be nil.
func AnnealMinMakespan(ctx context.Context, in *model.Instance, W, H int, o *model.Order, opt AnnealOptions) (*model.Placement, int, bool) {
	best, bestMk, ok := MinMakespan(in, W, H, o)
	if !ok {
		return nil, 0, false
	}
	if opt.OnImprove != nil {
		opt.OnImprove(best, bestMk)
	}
	n := in.N()
	if n < 2 || (opt.Target > 0 && bestMk <= opt.Target) {
		return best, bestMk, true
	}

	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	iters := opt.Iterations
	if iters <= 0 {
		iters = DefaultAnnealIterations
	}
	restarts := opt.Restarts
	if restarts <= 0 {
		restarts = len(ruleNames)
	}
	rng := rand.New(rand.NewSource(seed))

	// The walk is clipped at the greedy makespan: schedules that do
	// not fit the greedy horizon are rejected outright, which keeps
	// the occupancy grids small and the landscape bounded.
	horizon := bestMk
	prio := make([]int, n)
	sc := newScheduler(in, W, H, horizon, o)
	// A priority permutation decodes to the schedule in which the
	// ready task with the smallest priority value goes first.
	byPriority := func(v int) (int, int, int) { return prio[v], v, 0 }

	for r := 0; r < restarts; r++ {
		if canceled(ctx) {
			break
		}
		initPriorities(prio, in, o, Rule(r%len(ruleNames)))
		if r >= len(ruleNames) {
			// Later restarts jitter the base ordering so they explore
			// a different basin.
			for k := 0; k < n/2+1; k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				prio[i], prio[j] = prio[j], prio[i]
			}
		}
		// A decode's placement is the scheduler's, overwritten by the
		// next one: only a new best is cloned.
		cur, curMk, okr := sc.run(horizon, byPriority)
		if !okr {
			continue
		}
		if curMk < bestMk {
			best, bestMk = cur.Clone(), curMk
			report(opt, best, bestMk)
		}
		for it := 0; it < iters; it++ {
			if canceled(ctx) {
				return best, bestMk, true
			}
			if opt.Target > 0 && bestMk <= opt.Target {
				return best, bestMk, true
			}
			// Geometric cooling from temp 2.0 down to ~0.04: early
			// proposals accept makespan regressions of a few cycles,
			// late ones are nearly pure descent.
			temp := 2.0 * math.Pow(0.02, float64(it)/float64(iters))
			i, j := rng.Intn(n), rng.Intn(n)
			for i == j {
				j = rng.Intn(n)
			}
			prio[i], prio[j] = prio[j], prio[i]
			cand, mk, okc := sc.run(horizon, byPriority)
			if !okc || !accept(mk-curMk, temp, rng) {
				prio[i], prio[j] = prio[j], prio[i] // revert
				continue
			}
			curMk = mk
			if curMk < bestMk {
				best, bestMk = cand.Clone(), curMk
				report(opt, best, bestMk)
			}
		}
	}
	return best, bestMk, true
}

// accept implements the Metropolis criterion: improving or lateral
// moves always pass, worsening moves pass with probability e^(−Δ/T).
func accept(delta int, temp float64, rng *rand.Rand) bool {
	if delta <= 0 {
		return true
	}
	return rng.Float64() < math.Exp(-float64(delta)/temp)
}

func report(opt AnnealOptions, p *model.Placement, mk int) {
	if opt.OnImprove != nil {
		opt.OnImprove(p, mk)
	}
}

func canceled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// initPriorities fills prio with each task's rank under the rule's
// static ordering (ignoring readiness), so the first decode of the
// permutation reproduces the rule's greedy schedule.
func initPriorities(prio []int, in *model.Instance, o *model.Order, r Rule) {
	n := in.N()
	idx := make([]int, n)
	for v := range idx {
		idx[v] = v
	}
	sortByKey(idx, func(v int) (int, int, int) { return r.key(in, o, v) })
	for rank, v := range idx {
		prio[v] = rank
	}
}
