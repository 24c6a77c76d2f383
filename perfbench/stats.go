package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the percentile ladder a tail is chosen from: the highest
// rung that leaves at least tailBeyond samples above it. It stops at p99,
// so longer runs put more samples beyond the tail instead of reaching
// further into it.
var tailLadder = []float64{99, 98, 95, 90, 80, 75, 50}

const tailBeyond = 10

// Sample is a set of durations summarised as a median and a tail.
type Sample []time.Duration

func (s Sample) sorted() Sample {
	out := append(Sample(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Quantile is the nearest-rank q-th percentile (0 < q <= 100).
func (s Sample) Quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	ss := s.sorted()
	return ss[rankOf(len(ss), q)]
}

// rankOf is the 0-based nearest-rank index of percentile q in n samples.
func rankOf(n int, q float64) int {
	i := int(math.Ceil(q/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Tail returns the highest ladder percentile with at least tailBeyond
// samples above its nearest rank, its value, and whether one exists.
func (s Sample) Tail() (pct float64, v time.Duration, ok bool) {
	ss := s.sorted()
	for _, q := range tailLadder {
		if i := rankOf(len(ss), q); len(ss)-1-i >= tailBeyond {
			return q, ss[i], true
		}
	}
	return 0, 0, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianF is the median of xs (mean of the middle pair for even n).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}
