package metrics

import (
	"time"

	"github.com/esg-sched/esg/internal/stats"
	"github.com/esg-sched/esg/internal/units"
	"github.com/esg-sched/esg/internal/workflow"
)

// LatencyRecorder is the storage policy behind a Collector: what happens to
// each finished instance and each scheduling-overhead sample. The exact
// recorder keeps every sample (the historical behaviour, byte-identical
// output); the sketch recorder folds samples into streaming aggregates so a
// run's memory footprint is independent of its length.
type LatencyRecorder interface {
	// ObserveInstance takes one finished-instance record (completed or
	// abandoned, warm-up included and flagged) in completion order.
	ObserveInstance(rec InstanceRecord)
	// ObserveOverhead takes the overhead of the plan behind one
	// dispatched task.
	ObserveOverhead(d time.Duration)
	// finalizeInto writes the recorder's view — Records/Overheads or their
	// streaming stand-ins, per-app summaries, completion aggregates and
	// Faults.FailedInstances — into r.
	finalizeInto(r *Result, apps []*workflow.App)
}

// exactRecorder stores every sample: the default policy, preserving the
// full Records/Overheads/Latencies series and their historical bytes.
type exactRecorder struct {
	records   []InstanceRecord
	overheads []time.Duration
}

// NewExactRecorder returns the stored-sample recorder (the default).
func NewExactRecorder() LatencyRecorder { return &exactRecorder{} }

func (e *exactRecorder) ObserveInstance(rec InstanceRecord) {
	e.records = append(e.records, rec)
}

func (e *exactRecorder) ObserveOverhead(d time.Duration) {
	e.overheads = append(e.overheads, d)
}

func (e *exactRecorder) finalizeInto(r *Result, apps []*workflow.App) {
	r.Records = e.records
	r.Overheads = e.overheads
	r.TotalRecords = len(e.records)

	perApp := make([]AppSummary, len(apps))
	for i, app := range apps {
		perApp[i].Name = app.Name
	}
	var totalCost units.Money
	for _, rec := range r.Records {
		if rec.Warmup {
			continue
		}
		if rec.Failed {
			// Abandoned instances never complete: they count toward
			// SLOAttainment's denominator, not the completion aggregates.
			r.Faults.FailedInstances++
			continue
		}
		s := &perApp[rec.AppIndex]
		s.Instances++
		s.Cost += rec.Cost
		s.SLOMS = float64(rec.SLO) / float64(time.Millisecond)
		s.Latencies = append(s.Latencies, rec.Latency)
		if rec.Hit {
			s.Hits++
		}
		r.Instances++
		totalCost += rec.Cost
		if rec.Hit {
			r.Hits++
		}
	}
	for i := range perApp {
		s := &perApp[i]
		if s.Instances > 0 {
			s.HitRate = float64(s.Hits) / float64(s.Instances)
			ms := stats.DurationsToMillis(s.Latencies)
			s.MeanLatencyMS = stats.Mean(ms)
			s.P50MS = stats.Percentile(ms, 50)
			s.P95MS = stats.Percentile(ms, 95)
			s.P99MS = stats.Percentile(ms, 99)
		}
	}
	r.PerApp = perApp
	r.TotalCost = totalCost
	if r.Instances > 0 {
		r.HitRate = float64(r.Hits) / float64(r.Instances)
		r.MeanCost = totalCost / units.Money(r.Instances)
	}
}

// sketchApp is one application's streaming accumulator.
type sketchApp struct {
	instances int
	hits      int
	cost      units.Money
	sloMS     float64
	latencyMS stats.Sketch
}

// sketchRecorder folds every sample into O(1)-memory accumulators: per-app
// counters plus a latency quantile sketch, an overhead sketch, and
// streaming fault/SLO counts. Nothing grows with the run length, so a
// planet-scale run's metrics fit in kilobytes. Records/Overheads stay nil
// in the Result; percentiles come from the sketches (within ≈1%), while
// counts, hit rates, costs, means, min and max stay exact.
type sketchRecorder struct {
	perApp          []sketchApp
	totalRecords    int
	failedInstances int
	overheadMS      stats.Sketch
}

// NewSketchRecorder returns the streaming recorder for huge runs.
func NewSketchRecorder() LatencyRecorder { return &sketchRecorder{} }

func (s *sketchRecorder) ObserveInstance(rec InstanceRecord) {
	s.totalRecords++
	if rec.Warmup {
		return
	}
	if rec.Failed {
		s.failedInstances++
		return
	}
	for rec.AppIndex >= len(s.perApp) {
		s.perApp = append(s.perApp, sketchApp{})
	}
	a := &s.perApp[rec.AppIndex]
	a.instances++
	a.cost += rec.Cost
	a.sloMS = float64(rec.SLO) / float64(time.Millisecond)
	a.latencyMS.Observe(float64(rec.Latency) / float64(time.Millisecond))
	if rec.Hit {
		a.hits++
	}
}

func (s *sketchRecorder) ObserveOverhead(d time.Duration) {
	s.overheadMS.Observe(float64(d) / float64(time.Millisecond))
}

func (s *sketchRecorder) finalizeInto(r *Result, apps []*workflow.App) {
	r.TotalRecords = s.totalRecords
	r.Faults.FailedInstances += s.failedInstances
	box := s.overheadMS.Box()
	r.OverheadSummary = &box

	perApp := make([]AppSummary, len(apps))
	var totalCost units.Money
	for i, app := range apps {
		out := &perApp[i]
		out.Name = app.Name
		if i >= len(s.perApp) {
			continue
		}
		a := &s.perApp[i]
		out.Instances = a.instances
		out.Hits = a.hits
		out.Cost = a.cost
		out.SLOMS = a.sloMS
		if a.instances > 0 {
			out.HitRate = float64(a.hits) / float64(a.instances)
			out.MeanLatencyMS = a.latencyMS.Mean()
			out.P50MS = a.latencyMS.Quantile(50)
			out.P95MS = a.latencyMS.Quantile(95)
			out.P99MS = a.latencyMS.Quantile(99)
		}
		r.Instances += a.instances
		r.Hits += a.hits
		totalCost += a.cost
	}
	r.PerApp = perApp
	r.TotalCost = totalCost
	if r.Instances > 0 {
		r.HitRate = float64(r.Hits) / float64(r.Instances)
		r.MeanCost = totalCost / units.Money(r.Instances)
	}
}
