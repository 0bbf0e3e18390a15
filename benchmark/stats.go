package main

import (
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// median returns the median of vs without reordering it.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// spread is (max-min)/median, the relative width of a set of repeated
// measurements; 0 when there is nothing to compare.
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	return (hi - lo) / m
}

// sample is one client-observed operation. Times are offsets from the start
// of the phase that issued it.
type sample struct {
	kind       string
	start, end time.Duration
	ok         bool
}

func (s sample) ms() float64 { return float64(s.end-s.start) / float64(time.Millisecond) }

// nWindows is the number of equal measurement windows a phase is cut into;
// a metric's reported value is the median over them.
const nWindows = 5

// window is one of nWindows equal-count slices of a phase's successful
// operations, in completion order.
type window struct {
	ops        int
	wall       time.Duration
	throughput float64 // ops/s
	p50        float64 // ms
}

// windows cuts the successful samples, ordered by completion, into nWindows
// slices of equal operation count (dropping up to nWindows-1 trailing
// samples). A window's wall time runs from the previous window's last
// completion (the phase start for the first) to its own last completion, so
// the windows tile the phase without gaps. Fewer than nWindows samples give
// no windows.
func windows(samples []sample) []window {
	var done []sample
	for _, s := range samples {
		if s.ok {
			done = append(done, s)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].end < done[j].end })
	per := len(done) / nWindows
	if per == 0 {
		return nil
	}
	out := make([]window, nWindows)
	var prevEnd time.Duration
	for w := range out {
		part := done[w*per : (w+1)*per]
		lat := make([]float64, per)
		for i, s := range part {
			lat[i] = s.ms()
		}
		end := part[per-1].end
		out[w] = window{ops: per, wall: end - prevEnd, p50: median(lat)}
		if out[w].wall > 0 {
			out[w].throughput = float64(per) / out[w].wall.Seconds()
		}
		prevEnd = end
	}
	return out
}

// windowValues projects one field out of a window list.
func windowValues(ws []window, f func(window) float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}

// span is one traced interval. Spans of one request share its id; parent
// names the span that caused this one (-1 for a request's root).
type span struct {
	Name    string        `json:"name"`
	Layer   string        `json:"layer"`
	Request int           `json:"request"`
	Parent  int           `json:"parent"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// selfTimes returns each span's self time: its duration minus the length of
// the union of its children's intervals, never below zero. Children that
// overlap each other (shards working in parallel) are counted once; a span
// without children keeps its whole duration. Children are not clipped to the
// parent: several of them are re-executions of the same statement recorded
// after the parent ended, and stand in for work done inside it.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered, reach time.Duration
		first := true
		for _, k := range kids {
			c := spans[k]
			if c.End <= c.Start {
				continue
			}
			switch {
			case first || c.Start >= reach:
				covered += c.End - c.Start
				reach = c.End
				first = false
			case c.End > reach:
				covered += c.End - reach
				reach = c.End
			}
		}
		out[i] = max(0, s.dur()-covered)
	}
	return out
}
