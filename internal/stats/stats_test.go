package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestMeanAndStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Errorf("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := StdDev([]float64{2, 2, 2}); got != 0 {
		t.Errorf("StdDev of constants = %v", got)
	}
	got := StdDev([]float64{1, 3})
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("StdDev{1,3} = %v, want 1", got)
	}
}

func TestStdDevEdgeCases(t *testing.T) {
	// Pins the guard at len == 0 only: a single sample goes through the
	// population formula (which yields 0 for n=1) instead of being
	// special-cased away with the empty input.
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{42}, 0},
		{"pair", []float64{1, 3}, 1},
		{"constant", []float64{5, 5, 5, 5}, 0},
		{"known", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 2},
	}
	for _, c := range cases {
		if got := StdDev(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: StdDev = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single-element P95 = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Errorf("empty percentile != 0")
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 25); got != 2.5 {
		t.Errorf("interpolated P25 = %v, want 2.5", got)
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = v
		}
		pa := float64(a % 101)
		pb := float64(b % 101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := Percentile(xs, pa), Percentile(xs, pb)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		// Monotone in p and bounded by min/max.
		return va <= vb && va >= sorted[0] && vb <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBoxOf(t *testing.T) {
	b := BoxOf([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.Mean != 3 || b.N != 5 {
		t.Errorf("box = %+v", b)
	}
	if b.Q1 != 2 || b.Q3 != 4 {
		t.Errorf("quartiles = %v, %v", b.Q1, b.Q3)
	}
	empty := BoxOf(nil)
	if empty.N != 0 {
		t.Errorf("empty box N = %d", empty.N)
	}
	if s := b.String(); s == "" {
		t.Errorf("empty box string")
	}
}

func TestDurationsToMillis(t *testing.T) {
	got := DurationsToMillis([]time.Duration{time.Second, 250 * time.Millisecond})
	if got[0] != 1000 || got[1] != 250 {
		t.Errorf("got %v", got)
	}
}
