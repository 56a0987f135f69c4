package online

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
)

// ScriptSchema stamps serialized event scripts. The format is a single
// JSON object:
//
//	{
//	  "schema": "fpga3d/online-script/v1",
//	  "name":   "mixed-42",
//	  "device": {"w": 16, "h": 16},
//	  "seed":   42,
//	  "events": [
//	    {"at": 0, "kind": "arrive", "name": "m0", "w": 4, "h": 3,
//	     "dur": 20, "deadline": 2},
//	    {"at": 9, "kind": "depart", "name": "m0"},
//	    {"at": 12, "kind": "defrag"}
//	  ]
//	}
//
// Events are ordered by non-decreasing "at" (the logical cycle the
// event fires). "arrive" admits a w×h×dur module; "deadline" is the
// latest admissible start, defaulting to "at" (admit-now). "depart"
// removes the named module early; departing a module that was rejected
// or already finished is tolerated and skipped. "defrag" triggers a
// proactive compaction.
const ScriptSchema = "fpga3d/online-script/v1"

// Event kinds of a script.
const (
	// EventArrive admits a module.
	EventArrive = "arrive"
	// EventDepart removes a module by name.
	EventDepart = "depart"
	// EventDefrag triggers proactive compaction.
	EventDefrag = "defrag"
)

// Device is the spatial footprint a script targets.
type Device struct {
	W int `json:"w"`
	H int `json:"h"`
}

// Event is one step of an online workload script.
type Event struct {
	At       int    `json:"at"`
	Kind     string `json:"kind"`
	Name     string `json:"name,omitempty"`
	W        int    `json:"w,omitempty"`
	H        int    `json:"h,omitempty"`
	Dur      int    `json:"dur,omitempty"`
	Deadline int    `json:"deadline,omitempty"`
}

// Script is a reproducible arrival/departure workload for one device.
type Script struct {
	Schema string  `json:"schema"`
	Name   string  `json:"name,omitempty"`
	Device Device  `json:"device"`
	Seed   int64   `json:"seed,omitempty"`
	Events []Event `json:"events"`
}

// Validate checks the script's schema stamp, device and event shapes.
func (s *Script) Validate() error {
	if s.Schema != ScriptSchema {
		return fmt.Errorf("online: script schema %q, want %q", s.Schema, ScriptSchema)
	}
	if s.Device.W < 1 || s.Device.H < 1 {
		return fmt.Errorf("online: script device %dx%d is not positive", s.Device.W, s.Device.H)
	}
	prev := 0
	for i, e := range s.Events {
		if e.At < prev {
			return fmt.Errorf("online: event %d fires at %d, before its predecessor at %d", i, e.At, prev)
		}
		prev = e.At
		switch e.Kind {
		case EventArrive:
			if e.Name == "" || e.W < 1 || e.H < 1 || e.Dur < 1 {
				return fmt.Errorf("online: arrive event %d needs a name and positive w/h/dur", i)
			}
		case EventDepart:
			if e.Name == "" {
				return fmt.Errorf("online: depart event %d needs a name", i)
			}
		case EventDefrag:
		default:
			return fmt.Errorf("online: event %d has unknown kind %q", i, e.Kind)
		}
	}
	return nil
}

// WriteScript serializes the script as indented JSON.
func WriteScript(w io.Writer, s *Script) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadScript parses and validates a script.
func ReadScript(r io.Reader) (*Script, error) {
	var s Script
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("online: parse script: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// GenParams tunes the seeded script generator.
type GenParams struct {
	// Name labels the script (defaults to "online-<seed>").
	Name string
	// Seed drives the deterministic generator.
	Seed int64
	// W, H are the device dimensions.
	W, H int
	// Events is the number of arrival events (departures and defrags
	// are added on top). Default 32.
	Events int
	// MaxSize bounds module side lengths (default max(2, W/3)).
	MaxSize int
	// MaxDur bounds module execution times (default 24).
	MaxDur int
	// MaxGap bounds the cycles between consecutive arrivals
	// (default 4).
	MaxGap int
	// DepartFrac is the fraction of admitted modules that also get an
	// explicit early departure event (default 0.3).
	DepartFrac float64
	// DefragEvery inserts a defrag event after every n-th arrival
	// (0 disables).
	DefragEvery int
	// DeadlineSlack bounds the extra cycles granted past the arrival
	// for the admission deadline (0 = admit-now scripts, the shape the
	// differential test needs).
	DeadlineSlack int
}

// Generate builds a reproducible workload script from the seed: module
// sizes, durations, inter-arrival gaps, departures and deadlines are
// all drawn from one rand stream, so equal params give byte-equal
// scripts.
func Generate(p GenParams) *Script {
	if p.Events <= 0 {
		p.Events = 32
	}
	if p.MaxSize <= 0 {
		p.MaxSize = p.W / 3
		if p.MaxSize < 2 {
			p.MaxSize = 2
		}
	}
	if p.MaxDur <= 0 {
		p.MaxDur = 24
	}
	if p.MaxGap <= 0 {
		p.MaxGap = 4
	}
	if p.DepartFrac == 0 {
		p.DepartFrac = 0.3
	}
	if p.Name == "" {
		p.Name = fmt.Sprintf("online-%d", p.Seed)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	s := &Script{Schema: ScriptSchema, Name: p.Name, Device: Device{W: p.W, H: p.H}, Seed: p.Seed}
	clamp := func(v, hi int) int {
		if v > hi {
			return hi
		}
		return v
	}
	at := 0
	var pending []Event // departure events awaiting their slot
	for i := 0; i < p.Events; i++ {
		w := clamp(1+rng.Intn(p.MaxSize), p.W)
		h := clamp(1+rng.Intn(p.MaxSize), p.H)
		dur := 2 + rng.Intn(p.MaxDur-1)
		ev := Event{At: at, Kind: EventArrive, Name: fmt.Sprintf("m%d", i), W: w, H: h, Dur: dur}
		if p.DeadlineSlack > 0 {
			ev.Deadline = at + rng.Intn(p.DeadlineSlack+1)
		}
		s.Events = append(s.Events, ev)
		if rng.Float64() < p.DepartFrac && dur > 2 {
			pending = append(pending, Event{
				At:   at + 1 + rng.Intn(dur-1),
				Kind: EventDepart, Name: ev.Name,
			})
		}
		if p.DefragEvery > 0 && (i+1)%p.DefragEvery == 0 {
			s.Events = append(s.Events, Event{At: at, Kind: EventDefrag})
		}
		at += 1 + rng.Intn(p.MaxGap)
		// Flush departures whose time has come, keeping the event list
		// sorted by At.
		for i := 0; i < len(pending); {
			if pending[i].At <= at {
				s.Events = append(s.Events, pending[i])
				pending = append(pending[:i], pending[i+1:]...)
			} else {
				i++
			}
		}
	}
	s.Events = append(s.Events, pending...)
	sortEventsByAt(s.Events)
	return s
}

// sortEventsByAt stably orders events by firing cycle.
func sortEventsByAt(events []Event) {
	// Insertion sort keeps generation order among same-cycle events
	// (stable) without importing sort for a trivially small slice.
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].At < events[j-1].At; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
}

// ReplayStats summarizes one script replay.
type ReplayStats struct {
	Events      int `json:"events"`
	Admitted    int `json:"admitted"`
	Rejected    int `json:"rejected"`
	Unknown     int `json:"unknown,omitempty"`
	Departed    int `json:"departed"`
	SkippedDeps int `json:"skipped_departs,omitempty"`
	Defrags     int `json:"defrags"`
	DefragMoves int `json:"defrag_moves"`
}

// ReplayObserver, when non-nil, sees every event outcome during Replay:
// res is nil for non-arrival events, plan is nil except for defrag
// events.
type ReplayObserver func(ev Event, res *AdmitResult, plan *Plan)

// Replay drives a session through a script and collects workload
// statistics. Departures of unknown (rejected, finished or never
// admitted) modules are skipped, so generated scripts replay cleanly
// regardless of admission outcomes.
func Replay(ctx context.Context, s *Session, sc *Script, obs ReplayObserver) (*ReplayStats, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	stats := &ReplayStats{Events: len(sc.Events)}
	live := make(map[string]int) // module name → session ID
	for _, ev := range sc.Events {
		switch ev.Kind {
		case EventArrive:
			req := AdmitRequest{Name: ev.Name, W: ev.W, H: ev.H, Dur: ev.Dur, At: ev.At, Deadline: ev.Deadline}
			res, err := s.Admit(ctx, req)
			if err != nil {
				return nil, fmt.Errorf("online: replay %q at %d: %w", ev.Name, ev.At, err)
			}
			switch res.Decision {
			case DecisionPlaced, DecisionDefrag:
				stats.Admitted++
				live[ev.Name] = res.ID
				if res.Decision == DecisionDefrag {
					stats.Defrags++
					stats.DefragMoves += len(res.Moves)
				}
			case DecisionRejected:
				stats.Rejected++
			default:
				stats.Unknown++
			}
			if obs != nil {
				obs(ev, res, nil)
			}
		case EventDepart:
			id, ok := live[ev.Name]
			if !ok {
				stats.SkippedDeps++
				continue
			}
			delete(live, ev.Name)
			if err := s.Depart(id, ev.At); err != nil {
				// The module ran to completion before the departure
				// fired — the session already expired it.
				stats.SkippedDeps++
				continue
			}
			stats.Departed++
			if obs != nil {
				obs(ev, nil, nil)
			}
		case EventDefrag:
			plan, err := s.Defrag(ev.At)
			if err != nil {
				return nil, fmt.Errorf("online: replay defrag at %d: %w", ev.At, err)
			}
			if len(plan.Moves) > 0 {
				stats.Defrags++
				stats.DefragMoves += len(plan.Moves)
			}
			if obs != nil {
				obs(ev, nil, plan)
			}
		}
	}
	return stats, nil
}
