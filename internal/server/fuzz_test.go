package server

import (
	"bytes"
	"testing"

	"fpga3d/internal/model"
)

// FuzzSolveRequest runs raw bytes through the decoders of the three
// ways an instance enters the daemon — a synchronous solve body (for
// each mode), a job submission and one batch entry — where nothing may
// panic. Every instance a decoder accepts must hash as a
// model.ReadInstance of its re-encoding does, so the typed decode and
// the instance file format agree on what the instance is.
func FuzzSolveRequest(f *testing.F) {
	s := New(Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tasks []*solveTask
		for _, m := range []*solveMode{modeSolve, modeMinTime, modeMinChip} {
			if task, err := s.decodeSolve(bytes.NewReader(data), m); err == nil {
				tasks = append(tasks, task)
			}
		}
		if task, _, err := s.decodeJob(bytes.NewReader(data)); err == nil {
			tasks = append(tasks, task)
		}
		if task, err := s.prepareEntry(data, &batchRequest{}); err == nil {
			tasks = append(tasks, task)
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
