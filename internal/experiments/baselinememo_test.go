package experiments

import (
	"encoding/json"
	"testing"

	"github.com/esg-sched/esg/internal/metrics"
	"github.com/esg-sched/esg/internal/sched"
)

// baselineMemoExport renders everything deterministic about a run: the
// full export (per-instance latency series included) with the memo's own
// counters zeroed, since those are exactly what differs between the
// memoized and un-memoized paths by design.
func baselineMemoExport(t *testing.T, res *metrics.Result) string {
	t.Helper()
	e := res.ToExport(true)
	e.PlanCacheHits, e.PlanCacheMisses, e.PlanCacheIntervalHits = 0, 0, 0
	e.PlanCacheEvictions, e.PlanCacheInvalidations = 0, 0
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBaselineMemoEquivalenceUnderReplanPressure is the end-to-end half of
// the baseline-memo equivalence story: full scale-scenario emulations of
// INFless and FaST-GShare at 4× re-plan pressure (the -replan 4 stress,
// maximum memoized-reuse churn), memoized vs memo-disabled, must produce
// byte-identical exported results — the memo may only change wall time.
func TestBaselineMemoEquivalenceUnderReplanPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("full emulation equivalence runs; skipped in -short")
	}
	spec := ScaleSpec{Nodes: 64, LoadFactor: 100, Requests: 1200, Replan: 4}
	run := func(name string, disableMemo bool) *metrics.Result {
		r := NewRunner(42, 1)
		r.Overhead = sched.OverheadNone
		r.DisableBaselineMemo = disableMemo
		cell := r.ScaleCell(name, spec)
		if err := r.Resolve(cell); err != nil {
			t.Fatal(err)
		}
		res, err := r.cached(cell.Key)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, name := range []string{INFless, FaSTGShare} {
		t.Run(name, func(t *testing.T) {
			memoized := run(name, false)
			plain := run(name, true)
			if got, want := baselineMemoExport(t, memoized), baselineMemoExport(t, plain); got != want {
				t.Errorf("memoized run diverged from the un-memoized reference\nmemoized: %.400s\nplain:    %.400s", got, want)
			}
			if memoized.PlanCacheHits == 0 {
				t.Error("memoized run recorded no hits — the equivalence proved nothing")
			}
			if plain.PlanCacheHits+plain.PlanCacheMisses != 0 {
				t.Errorf("memo-disabled run recorded lookups: hits=%d misses=%d",
					plain.PlanCacheHits, plain.PlanCacheMisses)
			}
		})
	}
}
