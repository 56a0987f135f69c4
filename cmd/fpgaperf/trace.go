package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by fpgaperf around the
// call (the layers themselves are not instrumented). Times are
// nanosecond offsets from the recorder's epoch. Parent is 0 for the
// root span of an operation; every span of one operation shares Op.
// Roots named op.* are timed operations; the root named check holds
// the calls that check an answer outside the timed window.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Op       int64  `json:"op"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// recorder keeps the spans of a traced run in memory until they are
// written out at exit. A nil *recorder records nothing, so untraced
// runs pay one nil check per call site.
type recorder struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
	next     int64
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// tspan is an open span.
type tspan struct {
	rec    *recorder
	id, op int64
	parent int64
	name   string
	start  time.Time
}

func (r *recorder) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// op opens the root span of one operation.
func (r *recorder) op(name string) *tspan {
	if r == nil {
		return nil
	}
	id := r.newID()
	return &tspan{rec: r, id: id, op: id, name: name, start: time.Now()}
}

// child opens a span under s.
func (s *tspan) child(name string) *tspan {
	if s == nil {
		return nil
	}
	return &tspan{rec: s.rec, id: s.rec.newID(), op: s.op, parent: s.id, name: name, start: time.Now()}
}

// end closes the span.
func (s *tspan) end() {
	if s == nil {
		return
	}
	s.rec.add(s.id, s.parent, s.op, s.name, s.start, time.Now())
}

// record adds a closed child span with known bounds: the stage split a
// solver result reports (Result.Stages) has durations but no start
// times, so stages are laid end to end from from, clipped to the
// parent's interval by the self-time fold.
func (s *tspan) record(name string, from time.Time, d time.Duration) time.Time {
	if s == nil || d <= 0 {
		return from
	}
	to := from.Add(d)
	s.rec.add(s.rec.newID(), s.id, s.op, name, from, to)
	return to
}

func (r *recorder) add(id, parent, op int64, name string, start, end time.Time) {
	sp := span{ID: id, Parent: parent, Op: op, Workload: r.workload, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// fold is the per-layer view of a traced run: the self time and call
// count of every span name, and the wall time of the operations.
type fold struct {
	self  map[string]time.Duration
	total map[string]time.Duration
	calls map[string]int
	ops   int
	wall  time.Duration // summed durations of the op.* roots
	// layers is the summed self time of every span below an op.* root:
	// the part of the operations' wall time the layers account for. The
	// rest is the roots' own self time, spent in the benchmark between
	// calls into layers.
	layers time.Duration
}

// layerFrac is the share of the operations' wall time that the layers'
// self times account for.
func (f *fold) layerFrac() float64 {
	return ratio(float64(f.layers), float64(f.wall))
}

// sumCheck is the share of operation wall time the layers' self times
// must cover in a traced run of a question workload.
const sumCheck = 0.95

// checkSum is the sum check: it fails when the layers' self times cover
// less than sumCheck of the operations' wall time.
func (f *fold) checkSum() error {
	if got := f.layerFrac(); got < sumCheck {
		return fmt.Errorf("sum check: layer self times cover %.3f of operation wall time, want ≥ %.2f", got, sumCheck)
	}
	return nil
}

// foldSpans checks that the spans form connected trees — every parent
// exists in the same operation — and folds them into self times. A
// span's self time is its duration minus the part of its interval
// that its children cover.
func foldSpans(spans []span) (*fold, error) {
	byID := make(map[int64]*span, len(spans))
	kids := make(map[int64][]*span)
	for i := range spans {
		sp := &spans[i]
		if sp.End < sp.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", sp.ID, sp.Name)
		}
		byID[sp.ID] = sp
	}
	f := &fold{self: map[string]time.Duration{}, total: map[string]time.Duration{}, calls: map[string]int{}}
	timed := map[int64]bool{} // op ids of the op.* roots
	for i := range spans {
		sp := &spans[i]
		if sp.Parent == 0 {
			if sp.Op != sp.ID {
				return nil, fmt.Errorf("root span %d (%s) has op %d", sp.ID, sp.Name, sp.Op)
			}
			if strings.HasPrefix(sp.Name, "op.") {
				timed[sp.Op] = true
				f.ops++
				f.wall += time.Duration(sp.End - sp.Start)
			}
			continue
		}
		p, ok := byID[sp.Parent]
		if !ok || p.Op != sp.Op {
			return nil, fmt.Errorf("span %d (%s) is disconnected from its operation %d", sp.ID, sp.Name, sp.Op)
		}
		kids[sp.Parent] = append(kids[sp.Parent], sp)
	}
	for i := range spans {
		sp := &spans[i]
		d := time.Duration(sp.End - sp.Start)
		self := d - covered(sp, kids[sp.ID])
		f.total[sp.Name] += d
		f.calls[sp.Name]++
		f.self[sp.Name] += self
		if sp.Parent != 0 && timed[sp.Op] {
			f.layers += self
		}
	}
	return f, nil
}

// covered returns how much of p's interval the union of its children
// covers.
func covered(p *span, children []*span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, p.Start), min(c.End, p.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curS, curE int64
	curS, curE = -1, -1
	for _, x := range iv {
		if x[0] > curE {
			if curE > curS {
				sum += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE > curS {
		sum += curE - curS
	}
	return time.Duration(sum)
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
