package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p90 from 40 samples rests on four values and moves with each of
// them, so the benchmark refuses to report it.
const minBeyond = 10

var errTooFewSamples = errors.New("too few samples beyond the percentile")

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (the mean of the two middle values for an
// even count); it needs no samples beyond it, so it also serves the
// per-sweep sums, of which a run holds only a few.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs and refuses
// (errTooFewSamples) unless at least minBeyond samples lie above it.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of (0,100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples: %w", p, n, errTooFewSamples)
	}
	return sorted(xs)[rank-1], nil
}
