// Package online is the dynamic placement subsystem: a stateful
// session that manages one partially reconfigurable device under an
// *online* workload, where modules arrive and depart over time and
// every admission must be answered incrementally against the current
// layout — the operating regime of van der Veen et al.
// ("Defragmenting the Module Layout of a Partially Reconfigurable
// Device") and Ahmadinia et al. ("Optimal Free-Space Management and
// Routing-Conscious Dynamic Placement"), layered on this repository's
// exact solver.
//
// A Session maintains a logical clock, the set of resident modules
// (loaded now, or scheduled to load at a reserved future start), and a
// free-space index over the occupancy grid. Admission runs a decision
// ladder from cheapest to most expensive tier:
//
//  1. free-rect — best-fit into a maximal free rectangle of the
//     current occupancy (fpga.MaximalFreeRects), O(free rects).
//  2. slot — the greedy scheduler's space-time slot finder
//     (heur.Occupancy) searches reserved future starts up to the
//     admission deadline without relocating anyone.
//  3. cached witness — the equivalent static fixed-schedule instance
//     is canonically hashed and looked up in the session's probe
//     cache; a stored incumbent witness is remapped and re-verified,
//     a stored infeasibility answers the rejection outright.
//  4. exact probe — solver.FeasibleFixedScheduleCtx decides the static
//     instance (all residents relocatable). The probe runs the
//     fixed-schedule pipeline: per-slice area and conservative-scale
//     bounds, then a fixed-start bottom-left placer, and the spatial
//     search only when neither decides. When every task runs now the
//     probe is a pure 2D packing, and the search starts with the exact
//     bit-grid packer (internal/pack2d) before the packing-class engine.
//  5. defrag — a feasible witness that requires relocation becomes a
//     bounded-move defragmentation plan: moved modules are minimized
//     greedily, the moves are ordered so every destination is free
//     when written, and the whole schedule is replayed cycle-accurate
//     through fpga.Simulate before it is applied or returned.
//
// An admission rejected by tier 4 is *proven* infeasible at the
// current time: no relocation of the resident modules can make room.
package online

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"fpga3d/internal/fpga"
	"fpga3d/internal/heur"
	"fpga3d/internal/model"
	"fpga3d/internal/obs"
)

// Decision strings of an admission answer.
const (
	// DecisionPlaced means the module was admitted without moving any
	// resident (possibly at a reserved future start ≤ its deadline).
	DecisionPlaced = "placed"
	// DecisionDefrag means the module was admitted after applying a
	// defragmentation plan that relocated resident modules.
	DecisionDefrag = "defrag"
	// DecisionRejected means admission at the current time is proven
	// infeasible even with full relocation freedom.
	DecisionRejected = "rejected"
	// DecisionUnknown means the exact probe was cut off by a node
	// limit or context cancellation before deciding.
	DecisionUnknown = "unknown"
)

// Config tunes a session; W and H are required, everything else has a
// usable zero value.
type Config struct {
	// W, H are the device's spatial cell dimensions.
	W, H int
	// Strategy selects the solve strategy for exact probes ("",
	// "staged", "portfolio" or "anneal" — see solver.Options.Strategy).
	Strategy string
	// Workers is forwarded to solver.Options.Workers for exact probes.
	Workers int
	// ProbeNodeLimit bounds branch-and-bound nodes per exact probe
	// (0 = unlimited). A probe that hits the limit answers
	// DecisionUnknown and is never cached.
	ProbeNodeLimit int64
	// CacheSize bounds the probe cache (canonical static instances →
	// decisions and incumbent witnesses); 0 means 128, negative
	// disables caching.
	CacheSize int
	// MaxMoves bounds the modules a defragmentation plan may relocate
	// (0 means 16). An admission that is feasible but whose minimized
	// plan would move more modules answers DecisionRejected with
	// DecidedBy "move-bound" — reconfiguration bandwidth is the scarce
	// resource the bound protects.
	MaxMoves int
	// Metrics, when non-nil, accumulates probe and cache counters (and
	// is forwarded to the solver).
	Metrics *obs.Registry
	// Events, when non-nil, receives one obs.Snapshot per session
	// mutation (admit, depart, defrag); Phase carries the event kind,
	// Nodes the exact-probe effort, Elapsed the session age. The fpgad
	// serving layer points this at an obs.ProgressBroker stream.
	Events obs.ProgressFunc
}

// Resident is one module currently managed by a session: loaded on the
// array when Start ≤ now, or scheduled for a reserved future start.
type Resident struct {
	ID    int    `json:"id"`
	Name  string `json:"name,omitempty"`
	W     int    `json:"w"`
	H     int    `json:"h"`
	Dur   int    `json:"dur"`
	X     int    `json:"x"`
	Y     int    `json:"y"`
	Start int    `json:"start"`
}

// Finish returns the cycle at which the module unloads.
func (r *Resident) Finish() int { return r.Start + r.Dur }

// active reports whether the module occupies cells at cycle t.
func (r *Resident) active(t int) bool { return r.Start <= t && t < r.Finish() }

// Counters accumulates a session's lifetime statistics.
type Counters struct {
	Admitted   int64 `json:"admitted"`
	Rejected   int64 `json:"rejected"`
	Unknown    int64 `json:"unknown,omitempty"`
	Departed   int64 `json:"departed"`
	Expired    int64 `json:"expired"`
	Defrags    int64 `json:"defrags"`
	Moves      int64 `json:"moves"`
	ByFreeRect int64 `json:"by_free_rect"`
	BySlot     int64 `json:"by_slot"`
	ByCache    int64 `json:"by_cache"`
	ByProbe    int64 `json:"by_probe"`
	ProbeNodes int64 `json:"probe_nodes"`
}

// Session is a long-lived online placement engine for one device. All
// methods are safe for concurrent use; operations are serialized on an
// internal lock, so a session behaves as a linearizable state machine.
type Session struct {
	mu      sync.Mutex
	cfg     Config
	now     int
	nextID  int
	res     map[int]*Resident
	grid    *fpga.Grid  // occupancy of residents active at s.now
	rects   []fpga.Rect // cached maximal free rects; nil = dirty
	cache   *probeCache
	count   Counters
	created time.Time
}

// NewSession returns an empty session for a W×H device.
func NewSession(cfg Config) (*Session, error) {
	if cfg.W < 1 || cfg.H < 1 {
		return nil, fmt.Errorf("online: non-positive device %dx%d", cfg.W, cfg.H)
	}
	if cfg.MaxMoves == 0 {
		cfg.MaxMoves = 16
	}
	return &Session{
		cfg:     cfg,
		res:     make(map[int]*Resident),
		grid:    fpga.NewGrid(cfg.W, cfg.H),
		cache:   newProbeCache(cfg.CacheSize),
		created: time.Now(),
	}, nil
}

// Now returns the session's logical clock.
func (s *Session) Now() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// AdmitRequest asks the session to place one arriving module.
type AdmitRequest struct {
	// Name labels the module (informational; departures go by ID).
	Name string `json:"name,omitempty"`
	// W, H, Dur are the module's footprint and execution time.
	W   int `json:"w"`
	H   int `json:"h"`
	Dur int `json:"dur"`
	// At advances the session clock to this cycle before deciding
	// (ignored when behind the clock).
	At int `json:"at,omitempty"`
	// Deadline is the latest admissible start cycle; 0 (or anything at
	// or below the clock) means the module must start immediately —
	// and immediate admission is the only tier where relocation is
	// considered.
	Deadline int `json:"deadline,omitempty"`
}

// Move is one relocation of a defragmentation plan: module ID moves
// from (FromX, FromY) to (ToX, ToY). UnloadAt and LoadAt order the
// plan's reconfiguration steps; a direct move (UnloadAt == LoadAt)
// reads out and writes back in one step, UnloadAt < LoadAt means the
// module is parked off-array while other moves free its destination.
type Move struct {
	ID       int    `json:"id"`
	Name     string `json:"name,omitempty"`
	FromX    int    `json:"from_x"`
	FromY    int    `json:"from_y"`
	ToX      int    `json:"to_x"`
	ToY      int    `json:"to_y"`
	UnloadAt int    `json:"unload_at"`
	LoadAt   int    `json:"load_at"`
}

// AdmitResult is the session's answer to one admission.
type AdmitResult struct {
	// Decision is DecisionPlaced, DecisionDefrag, DecisionRejected or
	// DecisionUnknown.
	Decision string `json:"decision"`
	// DecidedBy names the ladder tier that settled the admission:
	// "free-rect", "slot", "cache" or "probe".
	DecidedBy string `json:"decided_by"`
	// ID, X, Y, Start locate the admitted module (admissions only).
	ID    int `json:"id,omitempty"`
	X     int `json:"x"`
	Y     int `json:"y"`
	Start int `json:"start"`
	// Moves is the applied defragmentation plan (DecisionDefrag only).
	Moves []Move `json:"moves,omitempty"`
	// Replans counts scheduled (not yet loaded) modules whose reserved
	// position changed at zero reconfiguration cost.
	Replans int `json:"replans,omitempty"`
	// Nodes is the branch-and-bound effort of the exact probe, when
	// one ran.
	Nodes int64 `json:"nodes,omitempty"`
	// Plan carries the validated defragmentation schedule backing
	// Moves; its Validate replays it through fpga.Simulate.
	Plan *Plan `json:"-"`
}

// ErrNotFound reports a departure for a module the session does not
// hold (already finished, departed, or never admitted).
var ErrNotFound = errors.New("online: no such module")

// Admit decides one arriving module against the current layout,
// walking the admission ladder (see the package comment). ctx bounds
// the exact probe; cancellation answers DecisionUnknown.
func (s *Session) Admit(ctx context.Context, req AdmitRequest) (*AdmitResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.W < 1 || req.H < 1 || req.Dur < 1 {
		return nil, fmt.Errorf("online: module %q has non-positive dimensions %dx%dx%d", req.Name, req.W, req.H, req.Dur)
	}
	if req.W > s.cfg.W || req.H > s.cfg.H {
		return nil, fmt.Errorf("online: module %q (%dx%d) exceeds the %dx%d device", req.Name, req.W, req.H, s.cfg.W, s.cfg.H)
	}
	s.advanceLocked(req.At)
	deadline := req.Deadline
	if deadline < s.now {
		deadline = s.now
	}

	res, err := s.admitLocked(ctx, req, deadline)
	if err != nil {
		return nil, err
	}
	switch res.Decision {
	case DecisionPlaced, DecisionDefrag:
		s.count.Admitted++
	case DecisionRejected:
		s.count.Rejected++
	default:
		s.count.Unknown++
	}
	s.emit("admit:"+res.Decision, res.Nodes)
	return res, nil
}

// admitLocked runs the admission ladder. Callers hold s.mu.
func (s *Session) admitLocked(ctx context.Context, req AdmitRequest, deadline int) (*AdmitResult, error) {
	// Tier 1: best-fit into a maximal free rectangle of the current
	// occupancy. Sound for an immediate start only when no reserved
	// future start could collide with the module's execution window.
	if !s.hasScheduledLocked() {
		if x, y, ok := fpga.BestFit(s.freeRectsLocked(), req.W, req.H); ok {
			s.count.ByFreeRect++
			return s.placeLocked(req, x, y, s.now, "free-rect"), nil
		}
	}

	// Tier 2: the space-time slot finder — looks past currently
	// finishing modules for the earliest admissible start ≤ deadline,
	// still without relocating anyone. Also the sound immediate check
	// when reserved future starts exist.
	if x, y, start, ok := s.findSlotLocked(req.W, req.H, req.Dur, deadline); ok {
		s.count.BySlot++
		return s.placeLocked(req, x, y, start, "slot"), nil
	}

	// Tiers 3–5 consider relocation, which the session only performs
	// for an immediate start: the equivalent static instance fixes
	// every start time, so its feasibility is exactly "can the module
	// start now after some relocation of the residents".
	return s.probeLocked(ctx, req)
}

// placeLocked admits the module at (x, y, start) without relocation.
func (s *Session) placeLocked(req AdmitRequest, x, y, start int, tier string) *AdmitResult {
	r := &Resident{ID: s.nextID, Name: req.Name, W: req.W, H: req.H, Dur: req.Dur, X: x, Y: y, Start: start}
	s.nextID++
	s.res[r.ID] = r
	if r.active(s.now) {
		s.grid.Fill(r.X, r.Y, r.W, r.H)
		s.rects = nil
	}
	return &AdmitResult{Decision: DecisionPlaced, DecidedBy: tier, ID: r.ID, X: x, Y: y, Start: start}
}

// Depart unloads the module with the given ID (early termination of a
// loaded module, or cancellation of a reserved future start), after
// advancing the clock to at.
func (s *Session) Depart(id, at int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(at)
	r, ok := s.res[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	if r.active(s.now) {
		s.grid.Clear(r.X, r.Y, r.W, r.H)
		s.rects = nil
	}
	delete(s.res, id)
	s.count.Departed++
	s.emit("depart", 0)
	return nil
}

// advanceLocked moves the logical clock forward to cycle `to` (no-op
// when behind), unloading modules that finish and loading reserved ones
// whose start arrives. The caller holds s.mu.
func (s *Session) advanceLocked(to int) {
	if to <= s.now {
		return
	}
	s.now = to
	// Rebuild occupancy from scratch: expire finished modules, then
	// mark everything active at the new clock. Simple and immune to
	// ordering bugs between expiry and activation.
	for id, r := range s.res {
		if r.Finish() <= to {
			delete(s.res, id)
			s.count.Expired++
		}
	}
	s.grid = fpga.NewGrid(s.cfg.W, s.cfg.H)
	s.rects = nil
	for _, r := range s.res {
		if r.active(to) {
			s.grid.Fill(r.X, r.Y, r.W, r.H)
		}
	}
}

// freeRectsLocked returns the maximal-free-rectangle index, recomputed
// lazily after any occupancy change.
func (s *Session) freeRectsLocked() []fpga.Rect {
	if s.rects == nil {
		s.rects = s.grid.MaximalFreeRects()
	}
	return s.rects
}

// hasScheduledLocked reports whether any resident has a reserved
// future start.
func (s *Session) hasScheduledLocked() bool {
	for _, r := range s.res {
		if r.Start > s.now {
			return true
		}
	}
	return false
}

// findSlotLocked searches the space-time occupancy for the earliest
// bottom-left slot for a w×h×dur box starting in [now, deadline].
func (s *Session) findSlotLocked(w, h, dur, deadline int) (x, y, start int, ok bool) {
	// The start window never needs to extend past the last resident's
	// finish — the array is empty from then on, so the earliest
	// feasible start is at most maxFin. Clamping also keeps the
	// occupancy allocation bounded by the workload, not the deadline.
	maxFin := 0
	for _, r := range s.res {
		if f := r.Finish() - s.now; f > maxFin {
			maxFin = f
		}
	}
	window := deadline - s.now
	if window > maxFin {
		window = maxFin
	}
	// The horizon covers every candidate start in the window plus the
	// module's own execution; resident boxes beyond it are clamped —
	// they cannot affect a slot inside the window.
	T := window + dur
	occ := heur.NewOccupancy(s.cfg.W, s.cfg.H, T)
	for _, r := range s.res {
		rs := r.Start - s.now
		if rs < 0 {
			rs = 0
		}
		rf := r.Finish() - s.now
		if rf > T {
			rf = T
		}
		if rf > rs {
			occ.Fill(r.X, r.Y, rs, r.W, r.H, rf-rs)
		}
	}
	x, y, rel, found := occ.FindSlot(w, h, dur, 0)
	if !found || s.now+rel > deadline {
		return 0, 0, 0, false
	}
	return x, y, s.now + rel, true
}

// residentsLocked returns the residents sorted by ID — the canonical
// construction order for static instances and snapshots.
func (s *Session) residentsLocked() []*Resident {
	out := make([]*Resident, 0, len(s.res))
	for _, r := range s.res {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// emit publishes one session event to the Events hook.
func (s *Session) emit(phase string, nodes int64) {
	if s.cfg.Events != nil {
		s.cfg.Events(obs.Snapshot{Phase: phase, Nodes: nodes, Elapsed: time.Since(s.created)})
	}
}

// FreeStats summarizes the free space of a layout.
type FreeStats struct {
	FreeCells     int     `json:"free_cells"`
	FreeRects     int     `json:"free_rects"`
	LargestW      int     `json:"largest_w"`
	LargestH      int     `json:"largest_h"`
	Fragmentation float64 `json:"fragmentation"`
}

// Snapshot is a point-in-time view of a session.
type Snapshot struct {
	Now       int        `json:"now"`
	W         int        `json:"w"`
	H         int        `json:"h"`
	Residents []Resident `json:"residents"`
	Free      FreeStats  `json:"free"`
	Counters  Counters   `json:"counters"`
}

// State returns a snapshot of the session, advancing the clock to at
// first (no-op when behind).
func (s *Session) State(at int) *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked(at)
	rects := s.freeRectsLocked()
	largest := fpga.LargestFreeRect(rects)
	snap := &Snapshot{
		Now: s.now, W: s.cfg.W, H: s.cfg.H,
		Free: FreeStats{
			FreeCells:     s.grid.FreeCells(),
			FreeRects:     len(rects),
			LargestW:      largest.W,
			LargestH:      largest.H,
			Fragmentation: s.grid.Fragmentation(rects),
		},
		Counters: s.count,
	}
	for _, r := range s.residentsLocked() {
		snap.Residents = append(snap.Residents, *r)
	}
	return snap
}

// Counters returns the session's lifetime counters.
func (s *Session) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// device returns the spatial container of the session (T set per use).
func (s *Session) device(t int) model.Container {
	return model.Container{W: s.cfg.W, H: s.cfg.H, T: t}
}
