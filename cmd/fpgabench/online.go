package main

import (
	"context"
	"fmt"
	"io"

	"fpga3d/internal/benchgate"
	"fpga3d/internal/online"
)

// OnlineReportSchema identifies the online replay report format; bump
// it on incompatible changes so a stale committed baseline fails loudly.
const OnlineReportSchema = "fpgabench/online/v2"

// onlineCase is one seeded event script replayed against a fresh
// session. Everything the generator samples is pinned here, so the
// workload — and therefore every admission decision the deterministic
// engine takes — is identical on every machine.
type onlineCase struct {
	name   string
	params online.GenParams
	quick  bool
}

// onlineSuite returns the online replay cases.
func onlineSuite() []onlineCase {
	return []onlineCase{
		{name: "online/steady/8x8", quick: true, params: online.GenParams{
			Seed: 1, W: 8, H: 8, Events: 48, MaxSize: 3, MaxDur: 8, DepartFrac: 0.3}},
		{name: "online/churn/10x10", quick: true, params: online.GenParams{
			Seed: 11, W: 10, H: 10, Events: 80, MaxSize: 4, MaxDur: 16, DepartFrac: 0.5, DefragEvery: 6}},
		{name: "online/defrag/12x12", params: online.GenParams{
			Seed: 7, W: 12, H: 12, Events: 64, MaxSize: 4, MaxDur: 12, DepartFrac: 0.4, DefragEvery: 8}},
		{name: "online/deadline/10x10", params: online.GenParams{
			Seed: 3, W: 10, H: 10, Events: 64, MaxSize: 4, MaxDur: 10, DepartFrac: 0.3, DeadlineSlack: 6}},
		{name: "online/tight/6x6", params: online.GenParams{
			Seed: 5, W: 6, H: 6, Events: 56, MaxSize: 4, MaxDur: 20, DepartFrac: 0.2, DefragEvery: 10}},
	}
}

// OnlineEntry is the exact outcome of one script replay: workload
// counts that depend only on the seeded script and the deterministic
// engine, every one diffed exactly against the baseline.
type OnlineEntry struct {
	Name        string `json:"name"`
	Seed        int64  `json:"seed"`
	Events      int    `json:"events"`
	Admitted    int    `json:"admitted"`
	Rejected    int    `json:"rejected"`
	Unknown     int    `json:"unknown,omitempty"`
	Departed    int    `json:"departed"`
	Defrags     int    `json:"defrags"`
	DefragMoves int    `json:"defrag_moves"`
	ProbeNodes  int64  `json:"probe_nodes"`
}

// OnlineReport is the machine-readable output of fpgabench -online.
type OnlineReport = benchgate.Report[OnlineEntry]

// runOnline is the -online entry point: replay every suite script
// against a fresh session per repetition, gate determinism across
// repetitions, and optionally diff against a committed baseline.
func runOnline(stdout, stderr io.Writer, quick, list bool, runs int, out, baseline string) int {
	cases := onlineSuite()
	if list {
		for _, c := range cases {
			listCase(stdout, c.name, "online", c.quick)
		}
		return 0
	}
	rep := newReport[OnlineEntry](OnlineReportSchema, runs, quick)
	for _, c := range cases {
		if quick && !c.quick {
			continue
		}
		e, err := measureOnlineCase(c, runs)
		if err != nil {
			fmt.Fprintf(stderr, "fpgabench: %s: %v\n", c.name, err)
			return 1
		}
		rep.Entries = append(rep.Entries, e)
		fmt.Fprintf(stdout, "%-24s admitted %3d  rejected %3d  moves %3d  nodes %8d\n",
			e.Name, e.Admitted, e.Rejected, e.DefragMoves, e.ProbeNodes)
	}
	return finish(rep, out, baseline, stdout, stderr)
}

// measureOnlineCase replays one script `runs` times, each against a
// fresh session. Every repetition must give the same entry — the engine
// is deterministic, so any drift is a hard error.
func measureOnlineCase(c onlineCase, runs int) (OnlineEntry, error) {
	var first OnlineEntry
	sc := online.Generate(c.params)
	for r := 0; r < runs; r++ {
		sess, err := online.NewSession(online.Config{W: sc.Device.W, H: sc.Device.H})
		if err != nil {
			return first, err
		}
		stats, err := online.Replay(context.Background(), sess, sc, nil)
		if err != nil {
			return first, err
		}
		e := OnlineEntry{
			Name: c.name, Seed: c.params.Seed, Events: stats.Events,
			Admitted: stats.Admitted, Rejected: stats.Rejected, Unknown: stats.Unknown,
			Departed: stats.Departed, Defrags: stats.Defrags, DefragMoves: stats.DefragMoves,
			ProbeNodes: sess.Counters().ProbeNodes,
		}
		if r == 0 {
			first = e
		} else if e != first {
			return first, fmt.Errorf("nondeterministic replay: run %d gave %+v, run 0 gave %+v", r, e, first)
		}
	}
	return first, nil
}
