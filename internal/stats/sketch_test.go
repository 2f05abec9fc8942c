package stats

import (
	"math"
	"sort"
	"testing"

	"github.com/esg-sched/esg/internal/rng"
)

func TestMeanEdgeCases(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v, want 0", m)
	}
	if m := Mean([]float64{}); m != 0 {
		t.Errorf("Mean(empty) = %v, want 0", m)
	}
	if m := Mean([]float64{42.5}); m != 42.5 {
		t.Errorf("Mean(single) = %v, want 42.5", m)
	}
	if m := Mean([]float64{7, 7, 7, 7}); m != 7 {
		t.Errorf("Mean(duplicates) = %v, want 7", m)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if p := Percentile(nil, 50); p != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", p)
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if got := Percentile([]float64{3.25}, p); got != 3.25 {
			t.Errorf("Percentile(single, %v) = %v, want 3.25", p, got)
		}
	}
	// Duplicate-heavy: every quantile of a constant sample is the constant.
	dups := make([]float64, 1000)
	for i := range dups {
		dups[i] = 12
	}
	for _, p := range []float64{0, 25, 50, 75, 99, 100} {
		if got := Percentile(dups, p); got != 12 {
			t.Errorf("Percentile(constant, %v) = %v, want 12", p, got)
		}
	}
	// Mostly-duplicate with one outlier: low quantiles stay on the mode.
	dups[999] = 1000
	if got := Percentile(dups, 50); got != 12 {
		t.Errorf("median of 999×12+outlier = %v, want 12", got)
	}
	// Out-of-range p clamps to the extremes.
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, -10); got != 1 {
		t.Errorf("Percentile(p<0) = %v, want min", got)
	}
	if got := Percentile(xs, 200); got != 5 {
		t.Errorf("Percentile(p>100) = %v, want max", got)
	}
	// Percentile must not mutate its input.
	unsorted := []float64{3, 1, 2}
	Percentile(unsorted, 50)
	if unsorted[0] != 3 || unsorted[1] != 1 || unsorted[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", unsorted)
	}
}

func TestSketchEmptyAndSingle(t *testing.T) {
	var s Sketch
	if s.Count() != 0 || s.Mean() != 0 || s.Quantile(50) != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("empty sketch not all-zero")
	}
	s.Observe(17)
	if s.Count() != 1 || s.Mean() != 17 || s.Min() != 17 || s.Max() != 17 {
		t.Fatalf("single-sample aggregates wrong")
	}
	for _, p := range []float64{0, 50, 100} {
		if q := s.Quantile(p); q != 17 {
			t.Fatalf("Quantile(%v) of single sample = %v (min/max clamp broken)", p, q)
		}
	}
}

func TestSketchZeroAndNegative(t *testing.T) {
	var s Sketch
	s.Observe(0)
	s.Observe(-3)
	s.Observe(10)
	if s.Count() != 3 || s.Min() != -3 || s.Max() != 10 {
		t.Fatalf("aggregates: n=%d min=%v max=%v", s.Count(), s.Min(), s.Max())
	}
	if q := s.Quantile(0); q != -3 {
		t.Fatalf("Quantile(0) = %v, want -3", q)
	}
	if q := s.Quantile(100); q != 10 {
		t.Fatalf("Quantile(100) = %v, want 10", q)
	}
	// The median rank lands on the zero bucket, which reports min.
	if q := s.Quantile(50); q != -3 {
		t.Fatalf("Quantile(50) = %v, want -3", q)
	}
}

// nearestRank is the sketch's exact reference: the order statistic at the
// same rank scale the sketch uses.
func nearestRank(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Floor(p/100*float64(len(sorted)-1) + 0.5))
	return sorted[rank]
}

// The core property: on randomized latency-like distributions the sketch's
// quantiles stay within the advertised relative-error bound of the exact
// nearest-rank order statistic.
func TestSketchQuantileErrorBound(t *testing.T) {
	bound := RelativeErrorBound() + 1e-9
	src := rng.New(0xE56)
	for trial := 0; trial < 40; trial++ {
		n := 200 + src.IntN(5000)
		xs := make([]float64, n)
		var s Sketch
		for i := range xs {
			// Lognormal-ish latencies with occasional heavy-tail spikes —
			// the shape of real serverless latency data.
			x := math.Exp(math.Log(50) + 0.8*src.Normal())
			if src.Float64() < 0.02 {
				x *= 10 + 40*src.Float64()
			}
			xs[i] = x
			s.Observe(x)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range []float64{0, 10, 25, 50, 75, 90, 95, 99, 99.9, 100} {
			exact := nearestRank(sorted, p)
			got := s.Quantile(p)
			if rel := math.Abs(got-exact) / exact; rel > bound {
				t.Fatalf("trial %d n=%d p=%v: sketch %v vs exact %v (rel err %.4f > %.4f)",
					trial, n, p, got, exact, rel, bound)
			}
		}
	}
}

// Merging shards must equal observing the union, exactly — the property the
// fixed global bin layout buys.
func TestSketchMergeEqualsUnion(t *testing.T) {
	src := rng.New(99)
	var whole Sketch
	shards := make([]Sketch, 4)
	for i := 0; i < 10000; i++ {
		x := math.Exp(4 + 1.2*src.Normal())
		whole.Observe(x)
		shards[i%4].Observe(x)
	}
	var merged Sketch
	// Merge in a scrambled order: bucket-wise addition commutes.
	for _, i := range []int{2, 0, 3, 1} {
		merged.Merge(&shards[i])
	}
	if merged.Count() != whole.Count() ||
		merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merged aggregates diverge from union")
	}
	// Sum is exact arithmetic but float addition order differs between the
	// sharded and union fills; only ulp-level drift is acceptable.
	if rel := math.Abs(merged.Sum()-whole.Sum()) / whole.Sum(); rel > 1e-12 {
		t.Fatalf("merged sum %v vs union %v (rel %g)", merged.Sum(), whole.Sum(), rel)
	}
	for p := 0.0; p <= 100; p += 2.5 {
		if merged.Quantile(p) != whole.Quantile(p) {
			t.Fatalf("Quantile(%v): merged %v != union %v", p, merged.Quantile(p), whole.Quantile(p))
		}
	}
}

// The memory driver: buckets scale with dynamic range, not sample count.
func TestSketchBucketsBounded(t *testing.T) {
	src := rng.New(5)
	var s Sketch
	for i := 0; i < 200000; i++ {
		s.Observe(1 + 999*src.Float64()) // 3 decades at most
	}
	// log(1000)/log(1.02) ≈ 349 buckets cover [1, 1000).
	if b := s.Buckets(); b > 360 {
		t.Fatalf("sketch used %d buckets for a 3-decade range", b)
	}
	if s.Count() != 200000 {
		t.Fatalf("count %d", s.Count())
	}
}

func TestSketchDeterministicAcrossFillOrder(t *testing.T) {
	xs := make([]float64, 3000)
	src := rng.New(123)
	for i := range xs {
		xs[i] = math.Exp(3 + src.Normal())
	}
	var fwd, rev Sketch
	for _, x := range xs {
		fwd.Observe(x)
	}
	for i := len(xs) - 1; i >= 0; i-- {
		rev.Observe(xs[i])
	}
	for p := 0.0; p <= 100; p += 5 {
		if fwd.Quantile(p) != rev.Quantile(p) {
			t.Fatalf("fill order changed Quantile(%v)", p)
		}
	}
}
