package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"fpga3d/internal/model"
	"fpga3d/internal/wire"
)

// refBatchRequest is the batch envelope as encoding/json decoded it
// before entries were decoded in place: raw entries, each decoded on
// its own afterwards.
type refBatchRequest struct {
	Requests  []json.RawMessage `json:"requests"`
	TimeoutMS int64             `json:"timeout_ms,omitempty"`
	Strategy  string            `json:"strategy,omitempty"`
}

// decodeRef decodes data into v with encoding/json, unknown fields
// disallowed: the reference the wire decoders must match.
func decodeRef(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// agree fails unless a wire decode (got, err) and the encoding/json
// decode of data into want both accept or both reject, with DeepEqual
// values on acceptance.
func agree(t *testing.T, kind string, data []byte, got any, err error, want any) {
	t.Helper()
	refErr := decodeRef(data, want)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: decoder error %v, encoding/json error %v", kind, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded %+v, encoding/json decoded %+v", kind, got, want)
	}
}

// FuzzSolveRequest runs raw bytes through the decoders of every body
// that carries an instance into the daemon — a synchronous solve body,
// a job submission, a batch entry and the batch envelope — where
// nothing may panic. Each decoder must accept exactly the inputs
// encoding/json accepts for its type with unknown fields disallowed,
// with DeepEqual values; the envelope is checked against raw entries
// each decoded on their own. Every instance that prepares for a solve
// (each mode) must hash as a model.ReadInstance of its re-encoding
// does, so the typed decode and the instance file format agree on what
// the instance is.
func FuzzSolveRequest(f *testing.F) {
	s := New(Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req solveRequest
		agree(t, "solve request", data, &req, req.decode(wire.NewDecoder(data)), new(solveRequest))
		var job jobRequest
		agree(t, "job request", data, &job, job.decode(wire.NewDecoder(data)), new(jobRequest))
		var entry batchSlot
		entry.err = entry.entry.decode(wire.NewDecoder(data))
		agree(t, "batch entry", data, &entry.entry, entry.err, new(batchEntry))

		var batch batchRequest
		var ref refBatchRequest
		batchErr := batch.decode(wire.NewDecoder(data))
		if refErr := decodeRef(data, &ref); (batchErr == nil) != (refErr == nil) {
			t.Fatalf("batch envelope: decoder error %v, encoding/json error %v", batchErr, refErr)
		}
		if batchErr != nil {
			batch.Requests = nil
		} else {
			if len(ref.Requests) != len(batch.Requests) || ref.TimeoutMS != batch.TimeoutMS || ref.Strategy != batch.Strategy {
				t.Fatalf("batch envelope: decoded %d entries, timeout %d, strategy %q; encoding/json %d, %d, %q",
					len(batch.Requests), batch.TimeoutMS, batch.Strategy, len(ref.Requests), ref.TimeoutMS, ref.Strategy)
			}
			for i, raw := range ref.Requests {
				slot := &batch.Requests[i]
				agree(t, "batch envelope entry", raw, &slot.entry, slot.err, new(batchEntry))
			}
		}

		var tasks []*solveTask
		for _, m := range []*solveMode{modeSolve, modeMinTime, modeMinChip} {
			if task, err := s.decodeSolve(data, m); err == nil {
				tasks = append(tasks, task)
			}
		}
		if task, _, err := s.decodeJob(data); err == nil {
			tasks = append(tasks, task)
		}
		if task, err := s.prepareEntry(&entry, &batchRequest{}); err == nil {
			tasks = append(tasks, task)
		}
		for i := range batch.Requests {
			if task, err := s.prepareEntry(&batch.Requests[i], &batch); err == nil {
				tasks = append(tasks, task)
			}
		}
		for _, task := range tasks {
			var buf bytes.Buffer
			if err := model.WriteInstance(&buf, task.in.Model()); err != nil {
				t.Fatal(err)
			}
			back, err := model.ReadInstance(&buf)
			if err != nil {
				t.Fatalf("accepted instance does not read back: %v", err)
			}
			if h := back.CanonicalHash(); h != task.hash {
				t.Fatalf("%s: hash %s, re-read instance hashes %s", task.mode.name, task.hash, h)
			}
		}
	})
}
