package metrics

import (
	"encoding/json"
	"io"
	"time"

	"github.com/esg-sched/esg/internal/stats"
)

// Export is the JSON-friendly projection of a Result: everything a
// downstream plotting script needs, with durations in milliseconds and
// money in cents.
type Export struct {
	Scheduler string  `json:"scheduler"`
	Workload  string  `json:"workload"`
	SLOLevel  string  `json:"slo_level"`
	Instances int     `json:"instances"`
	HitRate   float64 `json:"hit_rate"`
	CostCents float64 `json:"cost_cents"`
	UtilCPU   float64 `json:"util_cpu"`
	UtilGPU   float64 `json:"util_gpu"`

	Tasks        int     `json:"tasks"`
	ForcedMin    int     `json:"forced_min"`
	ColdStarts   int     `json:"cold_starts"`
	WarmStarts   int     `json:"warm_starts"`
	ConfigMisses int     `json:"config_misses"`
	MissRate     float64 `json:"miss_rate"`
	// Truncated is present only on a run cut off at its drain deadline,
	// so drained exports are byte-identical to pre-flag ones.
	Truncated bool `json:"truncated,omitempty"`

	PlanCacheHits         uint64 `json:"plan_cache_hits,omitempty"`
	PlanCacheIntervalHits uint64 `json:"plan_cache_interval_hits,omitempty"`
	PlanCacheMisses       uint64 `json:"plan_cache_misses,omitempty"`
	PlanCacheEvictions    uint64 `json:"plan_cache_evictions,omitempty"`

	// Faults is present only when fault injection touched the run, so
	// fault-free exports are byte-identical to pre-fault-engine ones.
	Faults *FaultExport `json:"faults,omitempty"`

	// Xfer is present only when the data-movement model charged
	// something, so zero-transfer exports are byte-identical to
	// pre-fabric ones.
	Xfer *XferExport `json:"xfer,omitempty"`

	OverheadMS OverheadStats `json:"overhead_ms"`
	PerApp     []AppExport   `json:"per_app"`
}

// FaultExport is the JSON projection of a run's fault-injection outcomes.
type FaultExport struct {
	SLOAttainment     float64 `json:"slo_attainment"`
	GoodputPerS       float64 `json:"goodput_per_s"`
	Crashes           int     `json:"crashes"`
	Recoveries        int     `json:"recoveries"`
	TasksLost         int     `json:"tasks_lost"`
	WarmFlushed       int     `json:"warm_flushed"`
	TaskFailures      int     `json:"task_failures"`
	ColdStartFailures int     `json:"cold_start_failures"`
	StragglersKilled  int     `json:"stragglers_killed"`
	Retries           int     `json:"retries"`
	DroppedJobs       int     `json:"dropped_jobs"`
	FailedInstances   int     `json:"failed_instances"`
	LostWorkSeconds   float64 `json:"lost_work_s"`
	MeanRecoveryS     float64 `json:"mean_recovery_s"`
	DowntimeSeconds   float64 `json:"downtime_s"`
}

// XferExport is the JSON projection of a run's modeled data movement.
type XferExport struct {
	Hops            int     `json:"hops"`
	CrossServer     int     `json:"cross_server"`
	CrossServerMB   float64 `json:"cross_server_mb"`
	LocalFraction   float64 `json:"local_fraction"`
	TransferSeconds float64 `json:"transfer_s"`
}

// OverheadStats is the box summary of scheduling overheads.
type OverheadStats struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Mean   float64 `json:"mean"`
	Max    float64 `json:"max"`
}

// AppExport is one application's exported metrics.
type AppExport struct {
	Name        string    `json:"name"`
	Instances   int       `json:"instances"`
	HitRate     float64   `json:"hit_rate"`
	CostCents   float64   `json:"cost_cents"`
	MeanMS      float64   `json:"mean_ms"`
	P50MS       float64   `json:"p50_ms"`
	P95MS       float64   `json:"p95_ms"`
	SLOMS       float64   `json:"slo_ms"`
	LatenciesMS []float64 `json:"latencies_ms,omitempty"`
}

// ToExport builds the JSON projection. includeSeries controls whether the
// full per-instance latency series (Fig. 7's raw data) is attached.
func (r *Result) ToExport(includeSeries bool) Export {
	box := r.OverheadBox()
	e := Export{
		Scheduler:    r.Scheduler,
		Workload:     r.Workload,
		SLOLevel:     r.SLOLevel,
		Instances:    r.Instances,
		HitRate:      r.HitRate,
		CostCents:    r.TotalCost.Cents(),
		UtilCPU:      r.UtilCPU,
		UtilGPU:      r.UtilGPU,
		Tasks:        r.Tasks,
		ForcedMin:    r.ForcedMin,
		ColdStarts:   r.ColdStarts,
		WarmStarts:   r.WarmStarts,
		ConfigMisses: r.ConfigMisses,
		MissRate:     r.MissRate(),
		Truncated:    r.Truncated,

		PlanCacheHits:         r.PlanCacheHits,
		PlanCacheIntervalHits: r.PlanCacheIntervalHits,
		PlanCacheMisses:       r.PlanCacheMisses,
		PlanCacheEvictions:    r.PlanCacheEvictions,
		OverheadMS: OverheadStats{
			N: box.N, Min: box.Min, Median: box.Median, Mean: box.Mean, Max: box.Max,
		},
	}
	if f := r.Faults; f.Any() {
		e.Faults = &FaultExport{
			SLOAttainment:     r.SLOAttainment(),
			GoodputPerS:       r.Goodput(),
			Crashes:           f.Crashes,
			Recoveries:        f.Recoveries,
			TasksLost:         f.TasksLost,
			WarmFlushed:       f.WarmFlushed,
			TaskFailures:      f.TaskFailures,
			ColdStartFailures: f.ColdStartFailures,
			StragglersKilled:  f.StragglersKilled,
			Retries:           f.Retries,
			DroppedJobs:       f.DroppedJobs,
			FailedInstances:   f.FailedInstances,
			LostWorkSeconds:   f.LostWorkSeconds,
			MeanRecoveryS:     f.MeanRecoveryS(),
			DowntimeSeconds:   f.DowntimeSeconds,
		}
	}
	if x := r.Xfer; x.Any() {
		e.Xfer = &XferExport{
			Hops:            x.Hops,
			CrossServer:     x.CrossServer,
			CrossServerMB:   x.CrossServerMB,
			LocalFraction:   x.LocalFraction(),
			TransferSeconds: x.TransferSeconds,
		}
	}
	for _, a := range r.PerApp {
		ae := AppExport{
			Name:      a.Name,
			Instances: a.Instances,
			HitRate:   a.HitRate,
			CostCents: a.Cost.Cents(),
			MeanMS:    a.MeanLatencyMS,
			P50MS:     a.P50MS,
			P95MS:     a.P95MS,
			SLOMS:     a.SLOMS,
		}
		if includeSeries {
			ae.LatenciesMS = stats.DurationsToMillis(a.Latencies)
		}
		e.PerApp = append(e.PerApp, ae)
	}
	return e
}

// WriteJSON writes the exported result as indented JSON.
func (r *Result) WriteJSON(w io.Writer, includeSeries bool) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.ToExport(includeSeries))
}

// TimelineBucket aggregates completed instances by arrival-time bucket —
// the convergence view used to verify steady state.
type TimelineBucket struct {
	Start     time.Duration `json:"start_ms"`
	Instances int           `json:"instances"`
	Hits      int           `json:"hits"`
	MeanMS    float64       `json:"mean_ms"`
}

// Timeline buckets all records (including warm-up instances) by arrival
// time with the given bucket width.
func (r *Result) Timeline(width time.Duration) []TimelineBucket {
	if width <= 0 {
		width = 10 * time.Second
	}
	byBucket := map[int]*TimelineBucket{}
	max := 0
	for _, rec := range r.Records {
		b := int(rec.Arrival / width)
		tb := byBucket[b]
		if tb == nil {
			tb = &TimelineBucket{Start: time.Duration(b) * width}
			byBucket[b] = tb
		}
		tb.Instances++
		tb.MeanMS += float64(rec.Latency) / float64(time.Millisecond)
		if rec.Hit {
			tb.Hits++
		}
		if b > max {
			max = b
		}
	}
	var out []TimelineBucket
	for b := 0; b <= max; b++ {
		tb := byBucket[b]
		if tb == nil {
			continue
		}
		tb.MeanMS /= float64(tb.Instances)
		out = append(out, *tb)
	}
	return out
}
