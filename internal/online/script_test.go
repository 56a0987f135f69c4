package online

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	p := GenParams{Seed: 7, W: 12, H: 12, Events: 20, DefragEvery: 6, DeadlineSlack: 4}
	a, b := Generate(p), Generate(p)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal params must generate identical scripts")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated script invalid: %v", err)
	}
	arrivals := 0
	for _, ev := range a.Events {
		if ev.Kind == EventArrive {
			arrivals++
			if ev.W > 12 || ev.H > 12 || ev.Dur < 2 {
				t.Fatalf("arrival out of bounds: %+v", ev)
			}
		}
	}
	if arrivals != 20 {
		t.Fatalf("%d arrivals, want 20", arrivals)
	}
	if c := Generate(GenParams{Seed: 8, W: 12, H: 12, Events: 20}); reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds must generate different scripts")
	}
}

// decodeScript decodes a script as encoding/json does with unknown
// fields disallowed, then validates it.
func decodeScript(data []byte) (*Script, error) {
	var s Script
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func TestScriptRoundTrip(t *testing.T) {
	s := Generate(GenParams{Seed: 3, W: 8, H: 8, Events: 12, DepartFrac: 0.5})
	var buf bytes.Buffer
	if err := WriteScript(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := decodeScript(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatal("script did not survive the JSON round trip")
	}
}

func TestScriptValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Script)
	}{
		{"bad schema", func(s *Script) { s.Schema = "nope/v9" }},
		{"bad device", func(s *Script) { s.Device.W = 0 }},
		{"unsorted", func(s *Script) { s.Events[0].At = 99 }},
		{"nameless arrive", func(s *Script) { s.Events[0].Name = "" }},
		{"zero dur", func(s *Script) { s.Events[0].Dur = 0 }},
		{"unknown kind", func(s *Script) { s.Events[0].Kind = "explode" }},
	}
	for _, tc := range cases {
		s := Generate(GenParams{Seed: 1, W: 8, H: 8, Events: 4})
		tc.mut(s)
		if err := s.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted a broken script", tc.name)
		}
	}
	if _, err := decodeScript([]byte(`{"schema":"x"}`)); err == nil {
		t.Fatal("a wrong schema was accepted")
	}
}

func TestReplayAccountsForEveryEvent(t *testing.T) {
	sc := Generate(GenParams{Seed: 5, W: 10, H: 10, Events: 24, MaxSize: 4, MaxDur: 12, DepartFrac: 0.4, DefragEvery: 8})
	s := mustSession(t, Config{W: 10, H: 10})
	seen := 0
	stats, err := Replay(context.Background(), s, sc, func(ev Event, res *AdmitResult, plan *Plan) {
		seen++
		if ev.Kind == EventArrive && res == nil {
			t.Error("arrival observed without a result")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Admitted+stats.Rejected+stats.Unknown != 24 {
		t.Fatalf("admit outcomes %d+%d+%d don't cover 24 arrivals",
			stats.Admitted, stats.Rejected, stats.Unknown)
	}
	if stats.Departed+stats.SkippedDeps == 0 && stats.Events > 24 {
		t.Fatal("script had departures but none were accounted for")
	}
	// Replaying on a mismatched device must fail validation up front.
	bad := *sc
	bad.Device.W = 0
	if _, err := Replay(context.Background(), s, &bad, nil); err == nil {
		t.Fatal("Replay accepted an invalid script")
	}
}
