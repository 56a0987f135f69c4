package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"fpga3d/internal/obs"
)

// promScrape is one parsed /metrics?format=prom exposition: scalar
// samples by name and histograms by family name.
type promScrape struct {
	scalars map[string]float64
	hists   map[string]*obs.HistogramSnapshot
}

// scrape fetches and parses the daemon's Prometheus exposition.
func scrape(c *http.Client, base string) (*promScrape, error) {
	resp, err := c.Get(base + "/metrics?format=prom")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// parseProm reads the text exposition obs.Registry.WritePrometheus
// writes: "# TYPE" lines, plain samples, and histogram families as
// <name>_bucket{le="…"}, <name>_sum and <name>_count.
func parseProm(r io.Reader) (*promScrape, error) {
	s := &promScrape{scalars: map[string]float64{}, hists: map[string]*obs.HistogramSnapshot{}}
	kinds := map[string]string{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, kind, ok := strings.Cut(rest, " "); ok {
				kinds[name] = kind
			}
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("prom: malformed line %q", line)
		}
		key, val := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("prom: line %q: %w", line, err)
		}
		if name, le, ok := bucketOf(key); ok && kinds[name] == "histogram" {
			h := s.hist(name)
			if le != "+Inf" {
				ub, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return nil, fmt.Errorf("prom: bucket %q: %w", key, err)
				}
				h.Bounds = append(h.Bounds, ub)
			}
			h.Cumulative = append(h.Cumulative, int64(v))
			continue
		}
		if name, ok := strings.CutSuffix(key, "_sum"); ok && kinds[name] == "histogram" {
			s.hist(name).Sum = v
			continue
		}
		if name, ok := strings.CutSuffix(key, "_count"); ok && kinds[name] == "histogram" {
			s.hist(name).Count = int64(v)
			continue
		}
		s.scalars[key] = v
	}
	return s, sc.Err()
}

func (s *promScrape) hist(name string) *obs.HistogramSnapshot {
	h := s.hists[name]
	if h == nil {
		h = &obs.HistogramSnapshot{}
		s.hists[name] = h
	}
	return h
}

// bucketOf splits `name_bucket{le="x"}` into name and x.
func bucketOf(key string) (name, le string, ok bool) {
	base, rest, ok := strings.Cut(key, "_bucket{le=\"")
	if !ok || !strings.HasSuffix(rest, "\"}") {
		return "", "", false
	}
	return base, strings.TrimSuffix(rest, "\"}"), true
}

// promDelta is the change between two scrapes: what one serve step
// did.
type promDelta struct{ before, after *promScrape }

// counter returns a counter's increase.
func (d promDelta) counter(name string) float64 {
	return d.after.scalars[name] - d.before.scalars[name]
}

// hist returns a histogram of the observations made between the
// scrapes.
func (d promDelta) hist(name string) obs.HistogramSnapshot {
	a := d.after.hists[name]
	if a == nil {
		return obs.HistogramSnapshot{}
	}
	out := obs.HistogramSnapshot{Bounds: a.Bounds, Cumulative: append([]int64(nil), a.Cumulative...), Count: a.Count, Sum: a.Sum}
	if b := d.before.hists[name]; b != nil && len(b.Cumulative) == len(out.Cumulative) {
		for i := range out.Cumulative {
			out.Cumulative[i] -= b.Cumulative[i]
		}
		out.Count -= b.Count
		out.Sum -= b.Sum
	}
	return out
}

// quantileMS is a step histogram's q-quantile in milliseconds.
func (d promDelta) quantileMS(name string, q float64) float64 {
	return d.hist(name).Quantile(q) * 1e3
}

// meanMS is a step histogram's mean observation in milliseconds.
func (d promDelta) meanMS(name string) float64 {
	h := d.hist(name)
	return ratio(h.Sum*1e3, float64(h.Count))
}
