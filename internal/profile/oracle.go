package profile

import (
	"sort"
	"time"

	"github.com/esg-sched/esg/internal/pricing"
	"github.com/esg-sched/esg/internal/units"
)

// Estimate is one row of a function's performance profile: a configuration
// with its modelled execution time and cost. This is what the Controller's
// schedulers consult ("performance profile of application x", Fig. 2(d)).
type Estimate struct {
	Config Config
	// Time is the modelled task execution time under Config.
	Time time.Duration
	// TaskCost is the modelled cost of the whole task.
	TaskCost units.Money
	// JobCost is TaskCost divided by the batch size — the per-job cost the
	// paper's path costs use (Fig. 3(a)).
	JobCost units.Money
}

// FunctionTable holds the precomputed estimates of one function over a
// configuration space, with views sorted by latency and by per-job cost —
// the two orders the search algorithms iterate in.
type FunctionTable struct {
	Fn *Function
	// ByLatency is sorted ascending by Time (Algorithm 1's ConfigLists).
	ByLatency []Estimate
	// ByJobCost is sorted ascending by JobCost.
	ByJobCost []Estimate
	// MinTime is the fastest execution time over the space.
	MinTime time.Duration
	// MinJobCost is the cheapest per-job cost over the space.
	MinJobCost units.Money

	// batchBound is the precomputed QuantizeBatchBound answer per queue
	// bound: batchBound[b] is the largest batch option <= b, for b in
	// [0, maxOption). The array stops at the largest option because every
	// bound at or past it quantizes to 0 ("unbounded") — the past-the-array
	// fallback is a constant, not an approximation. Tables built outside
	// buildTable (nil batchBound) fall back to the linear search, so the
	// lookup is an optimization, never a behavioral fork.
	batchBound []int
}

// Oracle binds a registry of functions, a configuration space and a pricing
// model into precomputed profile tables, one per function.
type Oracle struct {
	Space   Space
	Pricing pricing.Model
	tables  map[string]*FunctionTable
}

// NewOracle precomputes the profile tables of every registered function.
func NewOracle(reg *Registry, space Space, pm pricing.Model) *Oracle {
	o := &Oracle{
		Space:   space,
		Pricing: pm,
		tables:  make(map[string]*FunctionTable, reg.Len()),
	}
	for _, name := range reg.Names() {
		fn := reg.MustLookup(name)
		o.tables[name] = buildTable(fn, space, pm)
	}
	return o
}

func buildTable(fn *Function, space Space, pm pricing.Model) *FunctionTable {
	cfgs := space.Configs()
	ests := make([]Estimate, 0, len(cfgs))
	for _, cfg := range cfgs {
		t := fn.Exec(cfg)
		tc := pm.TaskCost(cfg.Resources(), t)
		ests = append(ests, Estimate{
			Config:   cfg,
			Time:     t,
			TaskCost: tc,
			JobCost:  tc / units.Money(cfg.Batch),
		})
	}
	byLat := append([]Estimate(nil), ests...)
	sort.SliceStable(byLat, func(i, j int) bool {
		if byLat[i].Time != byLat[j].Time {
			return byLat[i].Time < byLat[j].Time
		}
		return byLat[i].JobCost < byLat[j].JobCost
	})
	byCost := append([]Estimate(nil), ests...)
	sort.SliceStable(byCost, func(i, j int) bool {
		if byCost[i].JobCost != byCost[j].JobCost {
			return byCost[i].JobCost < byCost[j].JobCost
		}
		return byCost[i].Time < byCost[j].Time
	})
	ft := &FunctionTable{
		Fn:         fn,
		ByLatency:  byLat,
		ByJobCost:  byCost,
		MinTime:    byLat[0].Time,
		MinJobCost: byCost[0].JobCost,
		batchBound: buildBatchBoundLUT(byLat),
	}
	return ft
}

// buildBatchBoundLUT precomputes quantizeBatchBoundSearch for every bound
// below the table's largest batch option. ESG's plan cache, the oracle's
// callers and the baseline memos all quantize the queue length on every
// Plan call, which made the linear search the hottest flat profile line of
// the scale scenario; the array answers in O(1).
func buildBatchBoundLUT(ests []Estimate) []int {
	max := 0
	for _, e := range ests {
		if e.Config.Batch > max {
			max = e.Config.Batch
		}
	}
	lut := make([]int, max)
	for b := 1; b < max; b++ {
		best := 0
		for _, e := range ests {
			if opt := e.Config.Batch; opt <= b && opt > best {
				best = opt
			}
		}
		lut[b] = best
	}
	return lut
}

// Table returns the profile table of the named function.
func (o *Oracle) Table(name string) (*FunctionTable, bool) {
	t, ok := o.tables[name]
	return t, ok
}

// MustTable returns the profile table, panicking if the function is absent.
func (o *Oracle) MustTable(name string) *FunctionTable {
	t, ok := o.tables[name]
	if !ok {
		panic("profile: no table for function " + name)
	}
	return t
}

// Estimate returns the estimate of one specific configuration.
func (o *Oracle) Estimate(name string, cfg Config) Estimate {
	fn := o.MustTable(name).Fn
	t := fn.Exec(cfg)
	tc := o.Pricing.TaskCost(cfg.Resources(), t)
	return Estimate{Config: cfg, Time: t, TaskCost: tc, JobCost: tc / units.Money(cfg.Batch)}
}

// LatencyAscending returns the estimates of a function sorted by time,
// filtered so that batch sizes never exceed maxBatch (a scheduler cannot
// batch more jobs than its queue holds). maxBatch <= 0 means no filter.
func (ft *FunctionTable) LatencyAscending(maxBatch int) []Estimate {
	return filterBatch(ft.ByLatency, maxBatch)
}

// JobCostAscending returns the estimates sorted by per-job cost with the
// same batch filter.
func (ft *FunctionTable) JobCostAscending(maxBatch int) []Estimate {
	return filterBatch(ft.ByJobCost, maxBatch)
}

func filterBatch(ests []Estimate, maxBatch int) []Estimate {
	if maxBatch <= 0 {
		return ests
	}
	out := make([]Estimate, 0, len(ests))
	for _, e := range ests {
		if e.Config.Batch <= maxBatch {
			out = append(out, e)
		}
	}
	return out
}

// QuantizeBatchBound maps a queue-length bound to the largest batch option
// of this table that is <= bound — the canonical representative of every
// bound admitting the same configuration subset. Bounds at or beyond the
// largest option (and non-positive bounds) map to 0 ("unbounded"): the
// filtered list is identical for all of them. Plan memoizers key on this
// instead of the raw queue length.
//
// Oracle-built tables answer from the precomputed batchBound array; bounds
// past the array fall back to the constant 0 the search would return, and
// hand-assembled tables (nil array) fall back to the search itself.
func (ft *FunctionTable) QuantizeBatchBound(bound int) int {
	if bound <= 0 {
		return 0
	}
	if lut := ft.batchBound; lut != nil {
		if bound >= len(lut) {
			return 0
		}
		return lut[bound]
	}
	return quantizeBatchBoundSearch(ft.ByLatency, bound)
}

// quantizeBatchBoundSearch is the original linear-scan quantization the
// lookup array is precomputed from; it remains the reference semantics
// (the equivalence is pinned over the full bound range in tests) and the
// fallback for tables assembled without buildTable.
func quantizeBatchBoundSearch(ests []Estimate, bound int) int {
	best, max := 0, 0
	for _, e := range ests {
		b := e.Config.Batch
		if b > max {
			max = b
		}
		if b <= bound && b > best {
			best = b
		}
	}
	if bound >= max {
		return 0
	}
	return best
}
