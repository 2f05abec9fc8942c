// Package stats provides the small statistics toolkit the experiments use:
// means, percentiles, box-plot summaries and fixed-bin histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs (0 for empty
// input). A single sample is not special-cased: the population formula is
// defined for n=1 and yields 0 through the same code path.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. xs need not be sorted.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Box is a five-number box-plot summary plus the mean (the paper's Fig. 10
// marks the mean with a green triangle).
type Box struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// BoxOf computes the box summary of xs.
func BoxOf(xs []float64) Box {
	if len(xs) == 0 {
		return Box{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Box{
		Min:    sorted[0],
		Q1:     percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		Q3:     percentileSorted(sorted, 75),
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(sorted),
		N:      len(sorted),
	}
}

func (b Box) String() string {
	return fmt.Sprintf("n=%d min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f mean=%.3f",
		b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean)
}

// DurationsToMillis converts durations to float milliseconds.
func DurationsToMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
