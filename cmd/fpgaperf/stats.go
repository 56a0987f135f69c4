package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of the
// samples, or 0 when there are none. The input is not modified.
func percentile(samples []time.Duration, q float64) time.Duration {
	return rank(sortedDurations(samples), q)
}

// sortedDurations returns a sorted copy of samples.
func sortedDurations(samples []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// rank is percentile on an already sorted, non-empty slice (0 when
// empty).
func rank(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// passLog records a closed loop's operation latencies pass by pass.
type passLog struct {
	lat  []time.Duration
	busy time.Duration   // timed work of the current pass
	ends []int           // index into lat after each pass
	work []time.Duration // timed work of each pass
}

// op records one operation: its latency counts toward the percentiles
// and toward the pass's timed work.
func (p *passLog) op(d time.Duration) {
	p.lat = append(p.lat, d)
	p.busy += d
}

// endPass closes a pass.
func (p *passLog) endPass() {
	p.ends = append(p.ends, len(p.lat))
	p.work = append(p.work, p.busy)
	p.busy = 0
}

// summary groups whole passes into windows of at least minOps
// operations (a short remainder joins the last window) and returns the
// medians over windows of throughput (operations per second of timed
// work), median latency and the q-quantile latency. Medians over
// windows keep a transient stall of the host from moving a run's
// numbers; every pass does the same work, so the windows are alike.
func (p *passLog) summary(minOps int, q float64) (opsPerS float64, p50, tail time.Duration) {
	var rates []float64
	var windows [][]time.Duration
	from := 0
	var work time.Duration
	for i, end := range p.ends {
		work += p.work[i]
		if i < len(p.ends)-1 && (end-from < minOps || len(p.lat)-end < minOps) {
			continue
		}
		windows = append(windows, p.lat[from:end])
		rates = append(rates, ratio(float64(end-from), work.Seconds()))
		from, work = end, 0
	}
	p50, tail = windowQuantiles(windows, q)
	return median(rates), p50, tail
}

// tailWindow is the fewest samples a window needs for its q-quantile
// to have ten samples beyond it.
func tailWindow(q float64) int {
	return int(math.Round(10 / (1 - q)))
}

// chunks splits samples into consecutive windows of size; a short
// remainder joins the last window.
func chunks(samples []time.Duration, size int) [][]time.Duration {
	var out [][]time.Duration
	for from := 0; from < len(samples); from += size {
		end := from + size
		if len(samples)-end < size {
			end = len(samples)
		}
		out = append(out, samples[from:end])
		if end == len(samples) {
			break
		}
	}
	return out
}

// windowQuantiles returns the medians over windows of each window's
// median and q-quantile.
func windowQuantiles(windows [][]time.Duration, q float64) (p50, tail time.Duration) {
	var mids, tails []float64
	for _, w := range windows {
		s := sortedDurations(w)
		mids = append(mids, float64(rank(s, 0.5)))
		tails = append(tails, float64(rank(s, q)))
	}
	return time.Duration(median(mids)), time.Duration(median(tails))
}

// ms and us convert durations to fractional milliseconds and
// microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0: per-layer ratios of an idle layer
// read 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads -compare prints match the ones a reader computes by hand.
// With fewer than two values both quartiles equal the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	// Python's formula, including its linear extrapolation when the
	// quartile position falls outside the data (small n).
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
