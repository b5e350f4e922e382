package main

import (
	"math"
	"slices"
	"time"
)

// latencies is a sample of per-operation latencies in nanoseconds; a
// failed operation is math.MaxInt64, so it misses every limit.
type latencies []int64

// nearestRank returns the q-quantile of a sorted sample by nearest rank.
func nearestRank(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summary is the reported shape of one latency sample: the median and the
// highest of p99/p999 that still has at least ten samples beyond it.
type summary struct {
	n          int
	p50, p99   float64 // microseconds
	top        float64 // microseconds at topQ
	topQ       float64
	meanMicros float64
}

func summarize(l latencies) summary {
	if len(l) == 0 {
		return summary{}
	}
	s := slices.Clone(l)
	slices.Sort(s)
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	out := summary{
		n:          len(s),
		p50:        float64(nearestRank(s, 0.50)) / 1e3,
		p99:        float64(nearestRank(s, 0.99)) / 1e3,
		meanMicros: sum / float64(len(s)) / 1e3,
	}
	out.topQ = 0.99
	if len(s) >= 10_000 {
		out.topQ = 0.999
	}
	if len(s) >= 100_000 {
		out.topQ = 0.9999
	}
	out.top = float64(nearestRank(s, out.topQ)) / 1e3
	return out
}

// windowed summarises per-window samples: p50 and p99 are the medians of
// the windows' own percentiles, n counts every sample, and top is the
// highest percentile of the pooled sample that keeps ten samples beyond it.
func windowed(ws []latencies) summary {
	var all latencies
	var p50s, p99s []float64
	for _, w := range ws {
		if len(w) == 0 {
			continue
		}
		s := summarize(w)
		p50s = append(p50s, s.p50)
		p99s = append(p99s, s.p99)
		all = append(all, w...)
	}
	out := summarize(all)
	out.p50, out.p99 = median(p50s), median(p99s)
	return out
}

// median returns the median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// anchorSink keeps the anchor loop's result alive.
var anchorSink uint64

// anchorNanos times a fixed amount of integer work (an xorshift walk) and
// returns nanoseconds per iteration, the median of five passes. It moves
// with the runner's speed only, never with the code under test, so a run
// whose anchor is off shows a slow machine rather than a slow server.
func anchorNanos() float64 {
	const iters = 2_000_000
	var passes []float64
	x := uint64(88172645463325252)
	for p := 0; p < 5; p++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		passes = append(passes, float64(time.Since(start).Nanoseconds())/iters)
	}
	anchorSink = x
	return median(passes)
}
