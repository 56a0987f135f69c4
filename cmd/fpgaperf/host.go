package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The benchmark shares its host's cores with other machines' work, and
// the host's speed for this code drifts by 15–40% over minutes: on a
// 2-vCPU VM, the same deterministic search ran 3.3 ms a call in one
// quarter minute and 5.5 ms in another. Runs minutes apart disagree by
// more than any useful bound, so a run measures the host's speed next
// to the workload and scales its times to a nominal host.
//
// The gauge is a fixed reference kernel, an n-queens count by
// bit-parallel recursion run on every core at once. It is branchy,
// allocation-free code like the solver's inner loops, and it shares no
// code with the repository, so no change to the solver moves it. Timed
// alternately with the workloads for four minutes, it divided the
// drift out down to a 2–3% spread, where kernels bound by memory
// latency or by pure arithmetic left 8–11%. README.md has the numbers.

// refNominal is the reference kernel's median time on the 2-vCPU host
// the benchmark was calibrated on. Scaled times read as if the host
// ran the kernel this fast.
const refNominal = 540 * time.Microsecond

// refReps is how many times each core counts the queens per sample,
// and refQueens the board size.
const (
	refReps   = 8
	refQueens = 9
)

// gaugeEvery is how much timed work passes between two samples of the
// reference kernel (about 3% of a run), and gaugeSpan how many recent
// samples the scale factor is the median of.
const (
	gaugeEvery = 20 * time.Millisecond
	gaugeSpan  = 9
)

// refSolutions is the queens count the kernel must find; a wrong count
// would mean the kernel no longer does its fixed work.
const refSolutions = 352

// refKernel times one sample of the reference kernel: the mean time a
// core took for its share. Each goroutine times itself, so the time
// it takes to start goroutines on idle cores, which varies with what
// the process did just before, stays out of the sample.
func refKernel() time.Duration {
	n := runtime.GOMAXPROCS(0)
	counts := make([]int, n)
	took := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for k := 0; k < refReps; k++ {
				counts[i] = queens(refQueens, 0, 0, 0)
			}
			took[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for i, c := range counts {
		if c != refSolutions {
			panic("fpgaperf: reference kernel miscounted")
		}
		sum += took[i]
	}
	return sum / time.Duration(n)
}

// queens counts the placements of the remaining queens on an n×n board
// given the occupied columns and diagonals of the rows placed so far.
func queens(n int, cols, d1, d2 uint32) int {
	if cols == 1<<n-1 {
		return 1
	}
	c := 0
	for free := ^(cols | d1 | d2) & (1<<n - 1); free != 0; {
		bit := free & -free
		free ^= bit
		c += queens(n, cols|bit, (d1|bit)<<1, (d2|bit)>>1)
	}
	return c
}

// hostGauge scales timed work to the nominal host.
type hostGauge struct {
	recent  []time.Duration // the last gaugeSpan samples
	factors []float64       // the factor in force after each sample
	work    time.Duration   // timed work since the last sample
}

// sample times the reference kernel once.
func (g *hostGauge) sample() {
	g.recent = append(g.recent, refKernel())
	if len(g.recent) > gaugeSpan {
		g.recent = g.recent[1:]
	}
	g.factors = append(g.factors, g.factor())
}

// factor is how much faster than measured the nominal host would have
// run: refNominal over the median of the recent samples. It samples the
// kernel first if it has not yet.
func (g *hostGauge) factor() float64 {
	if len(g.recent) == 0 {
		g.sample()
	}
	s := append([]time.Duration(nil), g.recent...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(refNominal) / float64(s[len(s)/2])
}

// done records d of timed work and samples the kernel once gaugeEvery
// of work has passed since the last sample. Call it outside the timed
// window: a sample takes about refNominal.
func (g *hostGauge) done(d time.Duration) {
	if g.work += d; g.work >= gaugeEvery {
		g.work = 0
		g.sample()
	}
}

// scale returns d, a span of timed work, as the nominal host would have
// taken it, and records it with done.
func (g *hostGauge) scale(d time.Duration) time.Duration {
	s := scaled(d, g.factor())
	g.done(d)
	return s
}

func scaled(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// median is the median factor over the run, for the notes.
func (g *hostGauge) median() float64 {
	return median(g.factors)
}
