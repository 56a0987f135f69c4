package model_test

import (
	"bytes"
	"testing"

	"fpga3d/internal/bench"
	"fpga3d/internal/model"
)

// BenchmarkReadInstance decodes and validates the paper's DE instance
// as WriteInstance renders it: the front door every library and CLI
// question passes.
func BenchmarkReadInstance(b *testing.B) {
	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, bench.DE()); err != nil {
		b.Fatal(err)
	}
	js := buf.Bytes()
	b.SetBytes(int64(len(js)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.ReadInstance(bytes.NewReader(js)); err != nil {
			b.Fatal(err)
		}
	}
}
