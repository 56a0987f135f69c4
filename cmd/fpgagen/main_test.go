package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"fpga3d/internal/model"
	"fpga3d/internal/online"
)

// TestSeedReproducibility: the same -seed must regenerate the exact
// same instance (byte-identical JSON), and a different seed must not.
func TestSeedReproducibility(t *testing.T) {
	for _, family := range []string{"random", "layered", "sp"} {
		t.Run(family, func(t *testing.T) {
			a, err := buildInstance(family, 8, 10, 7, 8, 4, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildInstance(family, 8, 10, 7, 8, 4, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if ja, jb := asJSON(t, a), asJSON(t, b); ja != jb {
				t.Fatalf("seed 7 generated two different instances:\n%s\nvs\n%s", ja, jb)
			}
			if a.CanonicalHash() != b.CanonicalHash() {
				t.Fatal("same seed, different canonical hash")
			}

			c, err := buildInstance(family, 8, 10, 8, 8, 4, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if a.CanonicalHash() == c.CanonicalHash() {
				t.Fatalf("seeds 7 and 8 generated the same %s instance", family)
			}
		})
	}
}

// TestDeterministicFamiliesIgnoreSeed: the named benchmarks are fixed
// regardless of seed.
func TestDeterministicFamiliesIgnoreSeed(t *testing.T) {
	a, err := buildInstance("de", 8, 10, 1, 8, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildInstance("de", 8, 10, 99, 8, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if asJSON(t, a) != asJSON(t, b) {
		t.Fatal("de family varies with seed")
	}
}

func TestUnknownFamilyErrors(t *testing.T) {
	if _, err := buildInstance("nope", 8, 10, 1, 8, 4, 0.3); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// TestGeneratedInstancesValidate: every generated family passes the
// model validator across a few seeds.
func TestGeneratedInstancesValidate(t *testing.T) {
	for _, family := range []string{"de", "videocodec", "fir", "biquad", "fft", "random", "layered", "sp"} {
		for seed := int64(1); seed <= 3; seed++ {
			in, err := buildInstance(family, 4, 8, seed, 6, 4, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if err := in.Validate(); err != nil {
				t.Errorf("%s seed %d: %v", family, seed, err)
			}
		}
	}
}

// TestOnlineScriptRoundTrip: the -online path emits a script that
// decodes (unknown fields disallowed) and validates, reproducible per
// seed.
func TestOnlineScriptRoundTrip(t *testing.T) {
	p := online.GenParams{Seed: 7, W: 10, H: 10, Events: 16, MaxSize: 4, MaxDur: 6, DepartFrac: 0.4, DefragEvery: 5}
	a, b := online.Generate(p), online.Generate(p)
	var ja, jb bytes.Buffer
	if err := online.WriteScript(&ja, a); err != nil {
		t.Fatal(err)
	}
	if err := online.WriteScript(&jb, b); err != nil {
		t.Fatal(err)
	}
	if ja.String() != jb.String() {
		t.Fatal("seed 7 generated two different scripts")
	}
	var back online.Script
	dec := json.NewDecoder(&ja)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("emitted script does not decode: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("emitted script does not validate: %v", err)
	}
	if len(back.Events) != len(a.Events) {
		t.Fatalf("round-trip lost events: %d vs %d", len(back.Events), len(a.Events))
	}
}

func asJSON(t *testing.T, in *model.Instance) string {
	t.Helper()
	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
