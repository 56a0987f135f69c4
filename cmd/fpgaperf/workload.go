package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"fpga3d/internal/model"
)

// workload is one set of inputs the benchmark runs. setup generates
// the inputs from the seed (and, for the serve workloads, starts the
// daemon); it is timed as setup_s.
type workload struct {
	name  string
	setup func(cfg config) (runner, error)
}

// config is what every workload's setup receives.
type config struct {
	seed int64
	// corrupt damages every witness before it is checked; tests use it
	// to prove a wrong answer is counted as a failure.
	corrupt bool
}

// runner is a set-up workload, ready to measure.
type runner interface {
	// run measures the workload for about d. rec is nil when untraced.
	run(d time.Duration, rec *recorder) (*measure, error)
	close()
}

// measure is the outcome of one run of a workload.
type measure struct {
	chk checker
	// digest fingerprints every answer of a complete pass over the
	// workload's inputs; equal seeds must give equal digests ("" where
	// inputs never repeat, as on serve-cold).
	digest string
	// e2e holds every end-to-end metric except setup_s.
	e2e map[string]float64
	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
	// notes are extra stdout lines: numbers worth reading that are not
	// gated, such as the host factor a run was scaled by.
	notes []string
	// spans are the traced run's spans.
	spans []span
}

// checker counts attempted and failed operations. An operation fails
// when its answer is wrong: a pinned optimum differs, a witness does
// not verify, a response is not 2xx, a job does not end in "done", or
// a defrag plan does not validate.
type checker struct {
	attempted, failed int
	msgs              []string
	corrupt           bool
}

// op records one attempted operation; a non-nil err marks it failed.
func (c *checker) op(err error) {
	c.attempted++
	if err != nil {
		c.fail(err)
	}
}

// fail records a failure without counting a new attempt (a check made
// after the operation itself was counted).
func (c *checker) fail(err error) {
	c.failed++
	if len(c.msgs) < 5 {
		c.msgs = append(c.msgs, err.Error())
	}
}

// verify checks a witness placement through model's own verifier.
func (c *checker) verify(in *model.Instance, p *model.Placement, cont model.Container, order *model.Order) error {
	if p == nil {
		return fmt.Errorf("no witness placement")
	}
	if c.corrupt && len(p.X) > 0 {
		p = p.Clone()
		p.X[0] = cont.W // pushes task 0 off the chip
	}
	return p.Verify(in, cont, order)
}

// add merges o's counts into c.
func (c *checker) add(o checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, m := range o.msgs {
		if len(c.msgs) < 5 {
			c.msgs = append(c.msgs, m)
		}
	}
}

// passDigest accumulates the answers of one pass over a workload's
// inputs; compare checks that every complete pass hashed the same.
type passDigest struct {
	h     hash.Hash
	first string
	bad   bool
}

func newPassDigest() *passDigest { return &passDigest{h: sha256.New()} }

// answer adds one answer to the current pass.
func (d *passDigest) answer(format string, args ...any) {
	fmt.Fprintf(d.h, format+"\n", args...)
}

// endPass closes a complete pass; it reports a mismatch with the first
// pass once.
func (d *passDigest) endPass(c *checker) {
	sum := hex.EncodeToString(d.h.Sum(nil))
	d.h.Reset()
	switch {
	case d.first == "":
		d.first = sum
	case sum != d.first && !d.bad:
		d.bad = true
		c.fail(fmt.Errorf("answer digest changed between passes: %.12s vs %.12s", sum, d.first))
	}
}
