package fpga3d

import (
	"context"
	"fmt"
	"io"
	"time"

	"fpga3d/internal/model"
	"fpga3d/internal/solver"
)

// TaskID identifies a task within its Instance.
type TaskID int

// Task describes one hardware module: a W×H block of cells that executes
// for Dur clock cycles.
type Task = model.Task

// Chip is the available resource: a W×H cell array and a time budget of
// T clock cycles.
type Chip = model.Container

// Placement assigns every task its cell position (X, Y) and start time S.
type Placement = model.Placement

// Instance is a module placement problem: tasks plus temporal precedence
// constraints. Build it with NewInstance / AddTask / AddPrecedence, or
// load it from JSON with LoadInstance.
type Instance struct {
	m *model.Instance
}

// NewInstance returns an empty named instance.
func NewInstance(name string) *Instance {
	return &Instance{m: &model.Instance{Name: name}}
}

// AddTask appends a module with the given cell footprint and duration
// and returns its ID.
func (in *Instance) AddTask(name string, w, h, dur int) TaskID {
	in.m.Tasks = append(in.m.Tasks, model.Task{Name: name, W: w, H: h, Dur: dur})
	return TaskID(len(in.m.Tasks) - 1)
}

// AddPrecedence requires task from to finish before task to starts.
func (in *Instance) AddPrecedence(from, to TaskID) {
	in.m.Prec = append(in.m.Prec, model.Arc{From: int(from), To: int(to)})
}

// Name returns the instance name.
func (in *Instance) Name() string { return in.m.Name }

// Tasks returns the task list (a copy).
func (in *Instance) Tasks() []Task { return append([]Task(nil), in.m.Tasks...) }

// NumTasks returns the number of tasks.
func (in *Instance) NumTasks() int { return in.m.N() }

// Precedences returns the precedence arcs as (from, to) ID pairs.
func (in *Instance) Precedences() [][2]TaskID {
	out := make([][2]TaskID, 0, len(in.m.Prec))
	for _, a := range in.m.Prec {
		out = append(out, [2]TaskID{TaskID(a.From), TaskID(a.To)})
	}
	return out
}

// Validate checks the instance for structural errors (empty task set,
// non-positive dimensions, dangling or cyclic precedence constraints).
func (in *Instance) Validate() error { return in.m.Validate() }

// CanonicalHash returns a hex SHA-256 digest of the instance's
// canonical form: invariant under task and precedence insertion order
// (and JSON round trips), sensitive to any change of a task footprint,
// duration, name, or precedence edge. The instance Name is excluded.
// fpgad keys its result cache on it.
func (in *Instance) CanonicalHash() string { return in.m.CanonicalHash() }

// WithoutPrecedence returns a copy of the instance with every precedence
// constraint removed — the unconstrained baseline of Figure 7(b).
func (in *Instance) WithoutPrecedence() *Instance {
	return &Instance{m: in.m.WithoutPrec()}
}

// CriticalPath returns the total duration of the longest dependency
// chain — a lower bound on any feasible execution time.
func (in *Instance) CriticalPath() (int, error) {
	o, err := in.m.Order()
	if err != nil {
		return 0, err
	}
	return o.CriticalPath(), nil
}

// Model exposes the underlying model instance. Most callers do not need
// it; it exists for integration with the internal packages in tests and
// benchmarks.
func (in *Instance) Model() *model.Instance { return in.m }

// WrapInstance adopts an existing model instance (shared, not copied).
func WrapInstance(m *model.Instance) *Instance { return &Instance{m: m} }

// LoadInstance reads an instance from a JSON file (see WriteJSON for the
// format).
func LoadInstance(path string) (*Instance, error) {
	m, err := model.LoadInstance(path)
	if err != nil {
		return nil, err
	}
	return &Instance{m: m}, nil
}

// ReadInstance decodes an instance from JSON.
func ReadInstance(r io.Reader) (*Instance, error) {
	m, err := model.ReadInstance(r)
	if err != nil {
		return nil, err
	}
	return &Instance{m: m}, nil
}

// WriteJSON encodes the instance as indented JSON.
func (in *Instance) WriteJSON(w io.Writer) error { return model.WriteInstance(w, in.m) }

// VerifyPlacement checks a placement against the instance, the chip and
// the precedence constraints. A nil error means the placement is
// feasible. Precedence is checked arc by arc (Placement.VerifyArcs),
// which needs no transitive closure.
func (in *Instance) VerifyPlacement(p *Placement, c Chip) error {
	if err := p.Verify(in.m, c, nil); err != nil {
		return err
	}
	return p.VerifyArcs(in.m)
}

// Decision is the three-valued outcome of a decision problem.
type Decision = solver.Decision

// Decision values.
const (
	Unknown    = solver.Unknown
	Feasible   = solver.Feasible
	Infeasible = solver.Infeasible
)

// Options tunes the solver; nil means defaults (every stage enabled, no
// limits). See the solver package for the ablation switches.
type Options = solver.Options

// Strategy names accepted by Options.Strategy; the empty string selects
// the default staged pipeline. Every strategy returns the same answers
// — they differ in how the work is scheduled and therefore in effort
// statistics and witness provenance.
const (
	// StrategyStaged runs the paper's three stages — bounds, greedy
	// heuristic, exact search — sequentially with short-circuiting.
	// This is the default. When the search stops at its node limit on
	// a chip the greedy placer fits, after at least one annealing
	// walk's proposals in nodes, one annealing walk backs it up
	// (DecidedBy "anneal" when it fits the time budget); on every
	// other probe it is bit-identical to the historical pipeline.
	StrategyStaged = "staged"
	// StrategyPortfolio shares incumbents across the probes of an
	// optimization sweep: every greedy and search witness is stored, a
	// stored witness answers dominated probes outright, and feasible
	// witnesses tighten upper bounds. Each probe otherwise runs the
	// staged tiers in order, at every worker count.
	StrategyPortfolio = "portfolio"
	// StrategyAnneal extends the staged pipeline with a randomized
	// annealing placer between the greedy heuristic and the exact
	// search: when greedy misses the budget, a seeded simulated-
	// annealing walk over task priorities tries to close the gap before
	// any branch-and-bound node is expanded (the other strategies run
	// the same walk only after a node-limited search). Deterministic per
	// Options.AnnealSeed; decisions always agree with the staged
	// pipeline.
	StrategyAnneal = "anneal"
)

// AnytimeUpdate is one improvement notification of an anytime
// MinimizeTime run (Options.Anytime with Options.OnImprovement): a new
// best incumbent, a raised proven lower bound, or the final proof of
// optimality. Best only decreases and LowerBound only increases across
// a run, so Gap is non-increasing and the Final update carries Gap 0.
type AnytimeUpdate = solver.AnytimeUpdate

// Result is the outcome of a feasibility question.
type Result struct {
	Decision  Decision
	Placement *Placement // non-nil iff Decision == Feasible
	DecidedBy string     // "bound: …", "heuristic", or "search"
	Nodes     int64      // branch-and-bound nodes expended
	Stats     Stats      // full engine statistics
	Stages    StageTimings
	Elapsed   time.Duration
}

// OptimizeResult is the outcome of an optimization question.
type OptimizeResult struct {
	Decision   Decision
	Value      int // the optimal T (MinimizeTime) or chip side h (MinimizeChip)
	Placement  *Placement
	LowerBound int
	// BestBound is the best proven lower bound at exit: equal to Value
	// on a completed run, and the refined bound (≥ LowerBound) on a
	// partial run.
	BestBound int
	// Gap is the relative optimality gap (Value−BestBound)/Value: 0 on
	// a completed run, positive on a partial run that has proven some
	// Value feasible (MinimizeTime always has, from its greedy start).
	Gap     float64
	Nodes   int64
	Stats   Stats // engine statistics summed over all probes
	Stages  StageTimings
	Elapsed time.Duration
}

func opts(o *Options) Options {
	if o == nil {
		return Options{}
	}
	return *o
}

// Solve decides whether the instance fits the chip within its time
// budget while meeting every precedence constraint (FeasAT&FindS).
func Solve(in *Instance, c Chip, o *Options) (*Result, error) {
	return SolveCtx(context.Background(), in, c, o)
}

// SolveCtx is Solve under a context. The search polls ctx on its node
// cadence (every 256 branch-and-bound nodes); once ctx is done it
// returns promptly with Decision Unknown, DecidedBy "canceled" and the
// partial statistics gathered so far. The error stays nil for a
// canceled single decision — check ctx.Err to distinguish cancellation
// from a node/time limit.
func SolveCtx(ctx context.Context, in *Instance, c Chip, o *Options) (*Result, error) {
	r, err := solver.SolveOPPCtx(ctx, in.m, c, opts(o))
	if err != nil {
		return nil, err
	}
	return convertFeas(r), nil
}

// MinimizeTime computes the smallest execution time on a fixed W×H chip
// (MinT&FindS).
func MinimizeTime(in *Instance, w, h int, o *Options) (*OptimizeResult, error) {
	return MinimizeTimeCtx(context.Background(), in, w, h, o)
}

// MinimizeTimeCtx is MinimizeTime under a context. With
// Options.Workers > 1 the binary search's independent OPP decisions
// race on that many goroutines (the optimum and its witness equal the
// sequential sweep's whenever no probe hits a node or time limit);
// cancellation aborts the run promptly and returns the partial result —
// with the merged statistics of every probe, including canceled ones —
// together with ctx.Err().
func MinimizeTimeCtx(ctx context.Context, in *Instance, w, h int, o *Options) (*OptimizeResult, error) {
	r, err := solver.MinTimeCtx(ctx, in.m, w, h, opts(o))
	return convertOptErr(r, err)
}

// MinimizeChip computes the smallest square chip side h such that the
// instance completes within T cycles (MinA&FindS).
func MinimizeChip(in *Instance, t int, o *Options) (*OptimizeResult, error) {
	return MinimizeChipCtx(context.Background(), in, t, o)
}

// MinimizeChipCtx is MinimizeChip under a context. With
// Options.Workers > 1 the h-ascent's OPP decisions race on that many
// goroutines with first-useful-answer pruning; cancellation semantics
// match MinimizeTimeCtx.
func MinimizeChipCtx(ctx context.Context, in *Instance, t int, o *Options) (*OptimizeResult, error) {
	r, err := solver.MinBaseCtx(ctx, in.m, t, opts(o))
	return convertOptErr(r, err)
}

// FixedSchedule decides whether a spatial placement exists for
// prescribed start times (FeasA&FixedS).
func FixedSchedule(in *Instance, c Chip, starts []int, o *Options) (*Result, error) {
	return FixedScheduleCtx(context.Background(), in, c, starts, o)
}

// FixedScheduleCtx is FixedSchedule under a context; cancellation
// semantics match SolveCtx.
func FixedScheduleCtx(ctx context.Context, in *Instance, c Chip, starts []int, o *Options) (*Result, error) {
	if len(starts) != in.NumTasks() {
		return nil, fmt.Errorf("fpga3d: %d start times for %d tasks", len(starts), in.NumTasks())
	}
	r, err := solver.FeasibleFixedScheduleCtx(ctx, in.m, c, starts, opts(o))
	if err != nil {
		return nil, err
	}
	return convertFeas(r), nil
}

// MinimizeChipFixedSchedule computes the smallest square chip that
// admits a spatial placement for prescribed start times (MinA&FixedS).
func MinimizeChipFixedSchedule(in *Instance, starts []int, o *Options) (*OptimizeResult, error) {
	return MinimizeChipFixedScheduleCtx(context.Background(), in, starts, o)
}

// MinimizeChipFixedScheduleCtx is MinimizeChipFixedSchedule under a
// context; the h-ascent races like MinimizeChipCtx and cancellation
// returns the partial result together with ctx.Err().
func MinimizeChipFixedScheduleCtx(ctx context.Context, in *Instance, starts []int, o *Options) (*OptimizeResult, error) {
	if len(starts) != in.NumTasks() {
		return nil, fmt.Errorf("fpga3d: %d start times for %d tasks", len(starts), in.NumTasks())
	}
	r, err := solver.MinBaseFixedScheduleCtx(ctx, in.m, starts, opts(o))
	return convertOptErr(r, err)
}

func convertFeas(r *solver.OPPResult) *Result {
	return &Result{
		Decision:  r.Decision,
		Placement: r.Placement,
		DecidedBy: r.DecidedBy,
		Nodes:     r.Stats.Nodes,
		Stats:     r.Stats,
		Stages:    r.Stages,
		Elapsed:   r.Elapsed,
	}
}

// convertOptErr converts an optimization result while preserving the
// partial result the Ctx drivers return alongside a cancellation error.
func convertOptErr(r *solver.OptResult, err error) (*OptimizeResult, error) {
	var out *OptimizeResult
	if r != nil {
		out = convertOpt(r)
	}
	return out, err
}

func convertOpt(r *solver.OptResult) *OptimizeResult {
	return &OptimizeResult{
		Decision:   r.Decision,
		Value:      r.Value,
		Placement:  r.Placement,
		LowerBound: r.LowerBound,
		BestBound:  r.BestBound,
		Gap:        r.Gap,
		Nodes:      r.Stats.Nodes,
		Stats:      r.Stats,
		Stages:     r.Stages,
		Elapsed:    r.Elapsed,
	}
}

// ParetoPoint is one point of the (time, chip side) trade-off curve.
type ParetoPoint = solver.ParetoPoint

// Pareto computes the Pareto-optimal (execution time, square chip side)
// pairs for the instance, as in Figure 7 of the paper. For the
// unconstrained curve use in.WithoutPrecedence().
func Pareto(in *Instance, o *Options) ([]ParetoPoint, error) {
	return ParetoCtx(context.Background(), in, o)
}

// ParetoCtx is Pareto under a context. The T-walk is sequential (each
// point seeds the next), but with Options.Workers > 1 every chip
// minimization inside it races its probes; cancellation aborts the
// walk promptly and returns the partial front together with ctx.Err().
func ParetoCtx(ctx context.Context, in *Instance, o *Options) ([]ParetoPoint, error) {
	r, err := solver.ParetoFrontCtx(ctx, in.m, opts(o))
	if err != nil {
		if r != nil {
			return r.Points, err
		}
		return nil, err
	}
	return r.Points, nil
}
