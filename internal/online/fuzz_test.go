package online

import (
	"context"
	"testing"
)

// FuzzReadScript reads raw bytes as a script (decodeScript) and replays
// what it accepts: a script for a device of at most 16×16 cells must
// replay on a session with a small probe budget without panicking. A
// replay may stop at a module the device cannot hold; one that
// finishes accounts for every arrival and departure exactly once.
func FuzzReadScript(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := decodeScript(data)
		if err != nil {
			return
		}
		if sc.Device.W > 16 || sc.Device.H > 16 {
			return
		}
		s, err := NewSession(Config{W: sc.Device.W, H: sc.Device.H, ProbeNodeLimit: 200})
		if err != nil {
			t.Fatal(err)
		}
		st, err := Replay(context.Background(), s, sc, nil)
		if err != nil {
			return
		}
		arrivals, departs := 0, 0
		for _, ev := range sc.Events {
			switch ev.Kind {
			case EventArrive:
				arrivals++
			case EventDepart:
				departs++
			}
		}
		if st.Admitted+st.Rejected+st.Unknown != arrivals || st.Departed+st.SkippedDeps != departs {
			t.Fatalf("replay stats %+v for %d arrivals and %d departures", st, arrivals, departs)
		}
	})
}
