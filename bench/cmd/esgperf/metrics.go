package main

import (
	"fmt"
	"sort"
	"strconv"
)

// metricDef names one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the emulator sees, measured on
// untraced runs. The last three are outcomes of the simulation itself,
// deterministic at a fixed seed. Bounds cover the spread of ten timed runs
// at ten seeds: host times drift by up to a quarter over minutes on a
// shared 2-vCPU host, and the outcomes vary from seed to seed.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"req_per_s", "req/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.25},
	{"allocs_per_req", "allocs/req", "lower", 0.1},
	{"slo_attainment", "%", "higher", 0.25},
	{"cost_per_req", "cents", "lower", 0.25},
	{"finished_frac", "ratio", "higher", 0.01},
}

// perLayer are the traced run's metrics, grouped by the module whose
// work they count.
var perLayer = []metricDef{
	{"experiments.cells", "count", "lower", 0},
	{"experiments.cell_max_s", "s", "lower", 0},
	{"experiments.parallel_eff", "ratio", "higher", 0},
	{"workload.gen_s", "s", "lower", 0},
	{"workload.next_busy_s", "s", "lower", 0},
	{"sched.plan.calls", "count", "lower", 0},
	{"sched.plan.busy_s", "s", "lower", 0},
	{"sched.plan.p50_us", "us", "lower", 0},
	{"sched.plan.p99_us", "us", "lower", 0},
	{"sched.plan.max_ms", "ms", "lower", 0},
	{"sched.plan.calls_per_task", "ratio", "lower", 0},
	{"sched.plan.candidates_per_call", "ratio", "lower", 0},
	{"core.cache.lookups", "count", "lower", 0},
	{"core.cache.exact", "count", "higher", 0},
	{"core.cache.interval", "count", "higher", 0},
	{"core.cache.resume", "count", "higher", 0},
	{"core.cache.cold", "count", "lower", 0},
	{"core.cache.saved_ratio", "ratio", "higher", 0},
	{"sched.place.calls", "count", "lower", 0},
	{"sched.place.busy_s", "s", "lower", 0},
	{"sched.place.p50_ns", "ns", "lower", 0},
	{"sched.place.p99_ns", "ns", "lower", 0},
	{"sched.place.calls_per_task", "ratio", "lower", 0},
	{"sched.place.fit_ratio", "ratio", "higher", 0},
	{"controller.self_s", "s", "lower", 0},
	{"controller.tasks", "count", "lower", 0},
	{"controller.forced_min", "count", "lower", 0},
	{"controller.cold_starts", "count", "lower", 0},
	{"controller.warm_ratio", "ratio", "higher", 0},
	{"controller.live_peak", "count", "lower", 0},
	{"controller.sim_s", "sim_s", "lower", 0},
	{"cluster.xfer.hops", "count", "lower", 0},
	{"cluster.xfer.cross_mb", "MB", "lower", 0},
	{"cluster.xfer.transfer_sim_s", "sim_s", "lower", 0},
	{"fault.crashes", "count", "lower", 0},
	{"fault.retries", "count", "lower", 0},
	{"fault.tasks_lost", "count", "lower", 0},
	{"fault.lost_work_sim_s", "sim_s", "lower", 0},
	{"runtime.gc_cpu_s", "s", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"host.calib_ms", "ms", "lower", 0},
	{"trace.overhead", "ratio", "lower", 0},
}

// sample is one child run as the parent saw it.
type sample struct {
	Seed    uint64
	Traced  bool
	WallS   float64 // child process wall time
	CPUS    float64 // child user + system CPU
	RSSMB   float64 // child peak RSS
	CalibMS float64 // host calibration loop before the child
	Rep     *report
	Err     string
}

// e2eValues derives the end-to-end metrics of one untraced run.
func e2eValues(s sample) map[string]float64 {
	r := s.Rep
	return map[string]float64{
		"wall_s":         s.WallS,
		"setup_s":        r.SetupS,
		"req_per_s":      ratio(float64(r.Requests), r.RunS),
		"cpu_s":          s.CPUS,
		"peak_rss_mb":    s.RSSMB,
		"alloc_mb":       r.AllocMB,
		"allocs_per_req": ratio(float64(r.Mallocs), float64(r.Requests)),
		"slo_attainment": r.Outcomes["slo_attainment"],
		"cost_per_req":   r.Outcomes["cost_per_req"],
		"finished_frac":  r.Outcomes["finished_frac"],
	}
}

// layerValues derives the per-layer metrics of one traced run;
// untracedWall is the median wall time of the untraced runs.
func layerValues(s sample, untracedWall float64) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range []map[string]float64{s.Rep.Counters, s.Rep.Varying, s.Rep.Timings} {
		for k, v := range m {
			out[k] = v
		}
	}
	out["host.calib_ms"] = s.CalibMS
	out["trace.overhead"] = ratio(s.WallS, untracedWall) - 1
	return out
}

// stat summarizes one metric over a workload's runs.
type stat struct {
	metricDef
	Median float64   `json:"median"`
	P25    float64   `json:"p25"`
	P75    float64   `json:"p75"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func newStat(def metricDef, values []float64) stat {
	q := quartiles(values)
	return stat{metricDef: def, P25: q[0], Median: q[1], P75: q[2], N: len(values), Values: values}
}

// quartiles returns the three cut points of values the way Python's
// statistics.quantiles(values, n=4) computes them (the exclusive
// method). One value is its own quartiles; none reads 0.
func quartiles(values []float64) [3]float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

func median(values []float64) float64 { return quartiles(values)[1] }

// workloadRecord is one workload's part of a record.
type workloadRecord struct {
	Name     string   `json:"name"`
	Esgbench []string `json:"esgbench"`
	Why      string   `json:"why"`
	// Digests maps each seed run to its table's sha256.
	Digests  map[string]string `json:"digests"`
	Runs     int               `json:"runs"`
	Traced   int               `json:"traced_runs"`
	EndToEnd []stat            `json:"end_to_end"`
	PerLayer []stat            `json:"per_layer"`
	Failures []string          `json:"failures,omitempty"`
}

// summarize checks a workload's runs against each other and the golden
// digest and reduces them to medians and quartiles. Runs at one seed,
// traced or not, must render the same table and read the same result
// counters.
func summarize(w workload, v variant, seed uint64, samples []sample) workloadRecord {
	rec := workloadRecord{Name: w.Name, Esgbench: esgbenchArgs(w, seed, v), Why: w.Why, Digests: map[string]string{}}
	var untraced, traced []sample
	first := make(map[uint64]*report)
	for i, s := range samples {
		if s.Err != "" {
			rec.Failures = append(rec.Failures, fmt.Sprintf("run %d: %s", i+1, s.Err))
			continue
		}
		for _, f := range s.Rep.Failures {
			rec.Failures = append(rec.Failures, fmt.Sprintf("run %d: %s", i+1, f))
		}
		if ref, ok := first[s.Seed]; !ok {
			first[s.Seed] = s.Rep
			rec.Digests[strconv.FormatUint(s.Seed, 10)] = s.Rep.Digest
		} else {
			if s.Rep.Digest != ref.Digest {
				rec.Failures = append(rec.Failures, fmt.Sprintf("run %d: seed %d rendered table %.12s, an earlier run %.12s", i+1, s.Seed, s.Rep.Digest, ref.Digest))
			}
			for k, v := range ref.Counters {
				if s.Rep.Counters[k] != v {
					rec.Failures = append(rec.Failures, fmt.Sprintf("run %d: seed %d counter %s reads %g, an earlier run %g", i+1, s.Seed, k, s.Rep.Counters[k], v))
				}
			}
		}
		if s.Traced {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	if got, ok := rec.Digests[strconv.FormatUint(goldenSeed, 10)]; ok && got != goldenDigests[w.Name] {
		rec.Failures = append(rec.Failures, fmt.Sprintf("seed %d rendered table %.12s, the golden is %.12s", goldenSeed, got, goldenDigests[w.Name]))
	}
	rec.Runs, rec.Traced = len(untraced), len(traced)

	var walls []float64
	for _, s := range untraced {
		walls = append(walls, s.WallS)
	}
	base := median(walls)
	rec.EndToEnd = reduce(endToEnd, untraced, e2eValues)
	rec.PerLayer = reduce(perLayer, traced, func(s sample) map[string]float64 { return layerValues(s, base) })
	return rec
}

// reduce summarizes each metric of defs over samples.
func reduce(defs []metricDef, samples []sample, values func(sample) map[string]float64) []stat {
	if len(samples) == 0 {
		return nil
	}
	vals := make(map[string][]float64)
	for _, s := range samples {
		for k, v := range values(s) {
			vals[k] = append(vals[k], v)
		}
	}
	out := make([]stat, 0, len(defs))
	for _, def := range defs {
		out = append(out, newStat(def, vals[def.Name]))
	}
	return out
}
