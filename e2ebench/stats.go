package main

import (
	"math"
	"slices"
	"sort"
	"time"

	"graphkeys"
	"graphkeys/internal/obs"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile is the q-quantile of the durations by linear interpolation
// between closest ranks (0 for no samples).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, or 0 when b is 0, so that no metric is NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// regDiff is the change in a matcher's registry over one phase.
type regDiff struct {
	before, after graphkeys.Metrics
	// deltas is the number of deltas the phase applied.
	deltas int
}

func (d regDiff) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// hist is the histogram of the observations made during the phase.
// Min and Max are narrowed to the bounds of the buckets that gained
// observations, so quantile estimates stay inside them.
func (d regDiff) hist(name string) obs.HistogramSnapshot {
	a, b := d.after.Histograms[name], d.before.Histograms[name]
	out := obs.HistogramSnapshot{Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	lo, first := int64(0), true
	for i, bk := range a.Buckets {
		n := bk.Count
		if i < len(b.Buckets) {
			n -= b.Buckets[i].Count
		}
		out.Buckets = append(out.Buckets, obs.Bucket{UpperBound: bk.UpperBound, Count: n})
		if n > 0 {
			if first {
				out.Min, first = max(lo, a.Min), false
			}
			out.Max = min(bk.UpperBound, a.Max)
		}
		lo = bk.UpperBound
	}
	return out
}

func (d regDiff) perDelta(v float64) float64 { return ratio(v, float64(d.deltas)) }

// span is one completed operation: when it started and ended, relative
// to the start of its phase, and the work it carried (deltas or reads).
type span struct {
	t0, t1 time.Duration
	work   float64
}

func latencies(ops []span) []time.Duration {
	out := make([]time.Duration, len(ops))
	for i, o := range ops {
		out[i] = o.t1 - o.t0
	}
	return out
}

// windowRates cuts a phase's timeline, [0, phase), into windows of
// length win and returns the work completed per second in each window,
// each operation's work spread evenly over its own interval. Their
// median, like a median latency and unlike total work over total
// time, is not moved by a burst of host noise that stalls a minority
// of the windows.
func windowRates(ops []span, phase, win time.Duration) []float64 {
	n := int(phase / win)
	if n < 1 {
		n, win = 1, phase
	}
	work := make([]float64, n)
	for _, o := range ops {
		if o.t1 <= o.t0 {
			if w := int(o.t0 / win); w < n {
				work[w] += o.work
			}
			continue
		}
		for w := int(o.t0 / win); w < n && time.Duration(w)*win < o.t1; w++ {
			lo, hi := max(o.t0, time.Duration(w)*win), min(o.t1, time.Duration(w+1)*win)
			work[w] += o.work * float64(hi-lo) / float64(o.t1-o.t0)
		}
	}
	rates := make([]float64, n)
	for i, x := range work {
		rates[i] = x / win.Seconds()
	}
	return rates
}
