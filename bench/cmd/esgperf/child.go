package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"github.com/esg-sched/esg/internal/cli"
	"github.com/esg-sched/esg/internal/core"
	"github.com/esg-sched/esg/internal/experiments"
	"github.com/esg-sched/esg/internal/fault"
	esgmetrics "github.com/esg-sched/esg/internal/metrics"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
	esgworkload "github.com/esg-sched/esg/internal/workload"
)

// report is what one child run hands back to the parent.
type report struct {
	// Digest is the sha256 of the rendered table.
	Digest string `json:"digest"`
	// Requests counts the requests the cells' sources yielded.
	Requests int     `json:"requests"`
	SetupS   float64 `json:"setup_s"`
	// RunS is the wall time from the first cell's first Source.Next to
	// the end of Resolve.
	RunS    float64 `json:"run_s"`
	AllocMB float64 `json:"alloc_mb"`
	Mallocs uint64  `json:"mallocs"`
	// Outcomes are the ESG cells' deterministic end-to-end results.
	Outcomes map[string]float64 `json:"outcomes"`
	// Counters are the deterministic per-layer counts read from the
	// cells' results; they must not depend on tracing.
	Counters map[string]float64 `json:"counters"`
	// Varying are result counts the determinism contract lets vary from
	// run to run: under speculative planning (-cellshards > 1) which
	// plan-cache tier answers depends on timing.
	Varying map[string]float64 `json:"varying,omitempty"`
	// Timings are the traced run's per-layer host-time metrics.
	Timings  map[string]float64 `json:"timings,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
	Failures []string           `json:"failures,omitempty"`
}

// resolveSpan is the ID of the span every cell span is a child of.
const resolveSpan = 3

// span is one coarse interval of a child run, in ms since its main.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_ms"`
	End    float64            `json:"end_ms"`
	Args   map[string]float64 `json:"args,omitempty"`
}

// harness is one in-process run of a workload.
type harness struct {
	r      *experiments.Runner
	traced bool
	start  time.Time
	probes []*cellProbe
}

// gcCPUSeconds returns the runtime's estimate of the CPU time spent in
// garbage collection. The estimate advances only at collections, so the
// caller forces one first.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// newRunner builds the Runner exactly as cmd/esgbench does for opts.
func newRunner(opts cli.Options) (*experiments.Runner, error) {
	r := experiments.NewRunner(opts.Seed, opts.Scale)
	switch opts.Overhead {
	case "measured":
		r.Overhead = sched.OverheadMeasured
	case "none":
		r.Overhead = sched.OverheadNone
	case "fixed":
		r.Overhead = sched.OverheadFixed
	default:
		return nil, fmt.Errorf("unknown -overhead %q", opts.Overhead)
	}
	r.Parallel = opts.Parallel
	if r.Parallel <= 0 {
		r.Parallel = runtime.GOMAXPROCS(0)
	}
	r.CellShards = opts.CellShards
	if r.CellShards <= 0 {
		r.CellShards = runtime.GOMAXPROCS(0)
	}
	if !opts.Wall {
		r.Wall.Disable()
	}
	r.PlanCache = opts.PlanCache
	r.DisableBaselineMemo = !opts.BaselineMemo
	return r, nil
}

// scenarioSpecs assembles the scenario specs from opts as cmd/esgbench
// does.
func scenarioSpecs(opts cli.Options) (experiments.ScaleSpec, experiments.PlanetSpec, fault.Spec, error) {
	xfer := experiments.XferSpec{}
	if opts.Xfer {
		xfer = experiments.XferSpec{Enabled: true, OutFactor: opts.XferOut, PCIeMBps: opts.PCIe, NICMBps: opts.NIC}
	}
	scale := experiments.ScaleSpec{Nodes: opts.Nodes, LoadFactor: opts.Load, Requests: opts.Requests, Replan: opts.Replan, Xfer: xfer}
	planet := experiments.PlanetSpec{Nodes: opts.Nodes, LoadFactor: opts.Load, Requests: opts.Requests, Arrival: opts.Arrival, Xfer: xfer}
	if opts.Sched != "" {
		scheds, err := experiments.ParseSchedulers(opts.Sched)
		if err != nil {
			return scale, planet, fault.Spec{}, err
		}
		scale.Schedulers = scheds
		planet.Schedulers = scheds
	}
	return scale, planet, opts.FaultSpec(), nil
}

// normalizeScale fills a scale or chaos spec's zero fields the way
// ScaleScenario and ChaosScenario do, so the harness's cells carry the
// keys the scenario looks up.
func normalizeScale(spec experiments.ScaleSpec, scale float64, chaos bool) experiments.ScaleSpec {
	if spec.Nodes <= 0 {
		spec.Nodes = 256
	}
	if spec.LoadFactor <= 0 {
		spec.LoadFactor = 100
	}
	if spec.Requests <= 0 {
		spec.Requests = max(int(30000*scale), 1000)
	}
	if spec.Replan <= 0 {
		spec.Replan = 1
	}
	spec.Xfer = spec.Xfer.Defaulted()
	if len(spec.Schedulers) == 0 {
		if spec.Xfer.Enabled && !chaos {
			spec.Schedulers = experiments.Comparison
		} else {
			spec.Schedulers = experiments.DefaultScaleSpec().Schedulers
		}
	}
	return spec
}

// normalizePlanet fills a planet spec's zero fields as PlanetScenario
// does.
func normalizePlanet(spec experiments.PlanetSpec, scale float64) experiments.PlanetSpec {
	if spec.Nodes <= 0 {
		spec.Nodes = 2048
	}
	if spec.LoadFactor <= 0 {
		spec.LoadFactor = math.Max(1, math.Round(float64(spec.Nodes)/100))
	}
	if spec.Requests <= 0 {
		spec.Requests = max(int(1e6*scale), 20000)
	}
	spec.Xfer = spec.Xfer.Defaulted()
	if len(spec.Schedulers) == 0 {
		spec.Schedulers = []string{experiments.ESG}
	}
	return spec
}

// planetMake builds a planet cell's scheduler. PlanetCell's own Make
// attaches the grid's shared memos, which only PlanetScenario can build;
// a fresh distribution memo is equivalent for a one-cell grid, which
// shares nothing.
func planetMake(r *experiments.Runner, name string) func() (sched.Scheduler, error) {
	base := r.ComparisonCell(name, esgworkload.Heavy, workflow.Relaxed).Make
	return func() (sched.Scheduler, error) {
		s, err := base()
		if err != nil {
			return nil, err
		}
		esg, ok := s.(*core.ESG)
		if !ok {
			return nil, fmt.Errorf("planet workloads support ESG only, got %s", name)
		}
		esg.Dists = core.NewDistMemo()
		return s, nil
	}
}

// instrument wraps a cell's Make and Source so the harness sees the cell
// start, its first request and, when traced, every Plan, Place and Next
// call. gen is input generation the cell's constructor already did.
func (h *harness) instrument(c *experiments.Cell, gen time.Duration) {
	p := &cellProbe{key: c.Key, gen: gen}
	h.probes = append(h.probes, p)
	mk := c.Make
	c.Make = func() (sched.Scheduler, error) {
		p.makeAt = time.Since(h.start)
		s, err := mk()
		if err != nil || !h.traced {
			return s, err
		}
		return wrapScheduler(s, p, h.start), nil
	}
	src, tr, level := c.Source, c.Trace, c.Level
	// A trace cell becomes a TraceSource over the same trace, which is
	// what controller.Run does with it.
	c.Source = func() esgworkload.Source {
		begin := time.Now()
		var s esgworkload.Source
		switch {
		case src != nil:
			s = src()
		case tr != nil:
			s = esgworkload.NewTraceSource(tr)
		default:
			s = esgworkload.NewTraceSource(h.r.Trace(level))
		}
		p.gen += time.Since(begin)
		return &probedSource{Source: s, h: h, p: p}
	}
}

// runWorkload runs one repetition of the esgbench command args in this
// process: it builds the command's cells, resolves them through the
// instrumented Make and Source, renders the table from the runner's
// cache with the scenario function esgbench calls, and reports.
func runWorkload(args []string, traced bool) (*report, error) {
	h := &harness{traced: traced, start: time.Now()}
	var opts cli.Options
	fs := cli.NewFlagSet(&opts)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	r, err := newRunner(opts)
	if err != nil {
		return nil, err
	}
	h.r = r
	scaleSpec, planetSpec, faults, err := scenarioSpecs(opts)
	if err != nil {
		return nil, err
	}
	faultsOn := faults.Defaulted().Enabled()
	target := opts.Scenario
	if target == "paper" {
		if fs.NArg() != 1 {
			return nil, fmt.Errorf("want one paper target, got %q", fs.Args())
		}
		target = fs.Arg(0)
	} else if fs.NArg() != 0 {
		return nil, fmt.Errorf("-scenario %s takes no targets, got %q", target, fs.Args())
	}

	var cells []experiments.Cell
	add := func(build func() experiments.Cell) {
		begin := time.Now()
		c := build()
		gen := time.Since(begin)
		h.instrument(&c, gen)
		cells = append(cells, c)
	}
	var render func() (*experiments.Table, error)
	switch target {
	case "fig6":
		for _, s := range experiments.Settings() {
			for _, name := range experiments.Comparison {
				add(func() experiments.Cell { return r.ComparisonCell(name, s.Level, s.SLO) })
			}
		}
		render = func() (*experiments.Table, error) { return experiments.Fig6(r) }
	case "scale", "chaos":
		chaos := target == "chaos" && faultsOn
		spec := normalizeScale(scaleSpec, r.Scale, chaos)
		for _, name := range spec.Schedulers {
			if chaos {
				add(func() experiments.Cell { return r.ChaosCell(name, spec, faults.Defaulted()) })
			} else {
				add(func() experiments.Cell { return r.ScaleCell(name, spec) })
			}
		}
		render = func() (*experiments.Table, error) {
			if target == "chaos" {
				return experiments.ChaosScenario(r, scaleSpec, faults)
			}
			return experiments.ScaleScenario(r, scaleSpec)
		}
	case "planet":
		spec := normalizePlanet(planetSpec, r.Scale)
		shapes := []esgworkload.Shape{esgworkload.Diurnal, esgworkload.Burst, esgworkload.MultiTenant}
		if spec.Arrival != "" {
			shape, err := esgworkload.ParseShape(spec.Arrival)
			if err != nil {
				return nil, err
			}
			shapes = []esgworkload.Shape{shape}
		}
		for _, name := range spec.Schedulers {
			for _, shape := range shapes {
				add(func() experiments.Cell {
					c := r.PlanetCell(name, shape, spec, nil)
					c.Make = planetMake(r, name)
					return c
				})
			}
		}
		render = func() (*experiments.Table, error) { return experiments.PlanetScenario(r, planetSpec) }
	default:
		return nil, fmt.Errorf("unsupported target %q (want fig6, scale, chaos or planet)", target)
	}

	if err := r.Resolve(cells...); err != nil {
		return nil, err
	}
	runEnd := time.Since(h.start)

	rep := &report{Outcomes: map[string]float64{}, Counters: map[string]float64{}}
	results := make([]*esgmetrics.Result, len(cells))
	for i, c := range cells {
		res, err := r.ResultWith(c.Key, nil, c.Level, c.SLO)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}

	// The scenario renders from the runner's cache. A cell it has to run
	// itself logs a "running" line, which means the harness built a cell
	// the scenario does not look up.
	var log bytes.Buffer
	r.Log = &log
	table, err := render()
	r.Log = nil
	if err != nil {
		return nil, err
	}
	if strings.Contains(log.String(), "running ") {
		rep.Failures = append(rep.Failures, "the scenario ran cells the harness did not build: "+strings.TrimSpace(log.String()))
	}
	sum := sha256.Sum256([]byte(table.String()))
	rep.Digest = hex.EncodeToString(sum[:])

	h.fillReport(rep, results, runEnd, faultsOn)
	return rep, nil
}

// fillReport derives the report's metrics from the probes and results.
func (h *harness) fillReport(rep *report, results []*esgmetrics.Result, runEnd time.Duration, faultsOn bool) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.AllocMB = float64(ms.TotalAlloc) / (1 << 20)
	rep.Mallocs = ms.Mallocs

	firstMake, runStart := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	var setup time.Duration
	for _, p := range h.probes {
		firstMake = min(firstMake, p.makeAt)
		runStart = min(runStart, p.firstNext)
		setup += p.firstNext - p.makeAt
		rep.Requests += p.generated
	}
	rep.SetupS = (firstMake + setup).Seconds()
	rep.RunS = (runEnd - runStart).Seconds()

	// Accounting: every generated request finished (completed or
	// abandoned) or is counted unfinished; only fault injection may
	// leave requests unfinished.
	for i, res := range results {
		p := h.probes[i]
		if res.TotalRecords+res.Unfinished != p.generated {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %d finished + %d unfinished != %d generated",
				p.key, res.TotalRecords, res.Unfinished, p.generated))
		}
		if res.Unfinished != 0 && !faultsOn {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %d unfinished instances without fault injection", p.key, res.Unfinished))
		}
	}

	var esgCost, esgInst, esgHits, esgMeasured float64
	c := rep.Counters
	var cold, warm float64
	for _, res := range results {
		if res.Scheduler == experiments.ESG {
			measured := float64(res.Instances + res.Faults.FailedInstances + res.Unfinished)
			esgCost += res.TotalCost.Cents()
			esgInst += float64(res.Instances)
			esgHits += float64(res.Hits)
			esgMeasured += measured
		}
		c["core.cache.exact"] += float64(res.PlanCacheHits)
		c["core.cache.interval"] += float64(res.PlanCacheIntervalHits)
		c["core.cache.resume"] += float64(res.PlanCacheResumes)
		c["core.cache.cold"] += float64(res.PlanCacheMisses)
		c["controller.tasks"] += float64(res.Tasks)
		c["controller.forced_min"] += float64(res.ForcedMin)
		cold += float64(res.ColdStarts)
		warm += float64(res.WarmStarts)
		c["controller.live_peak"] = math.Max(c["controller.live_peak"], float64(res.InstanceLivePeak))
		c["controller.sim_s"] += res.SimTime.Seconds()
		c["cluster.xfer.hops"] += float64(res.Xfer.Hops)
		c["cluster.xfer.cross_mb"] += res.Xfer.CrossServerMB
		c["cluster.xfer.transfer_sim_s"] += res.Xfer.TransferSeconds
		c["fault.crashes"] += float64(res.Faults.Crashes)
		c["fault.retries"] += float64(res.Faults.Retries)
		c["fault.tasks_lost"] += float64(res.Faults.TasksLost)
		c["fault.lost_work_sim_s"] += res.Faults.LostWorkSeconds
	}
	c["experiments.cells"] = float64(len(results))
	c["controller.cold_starts"] = cold
	c["controller.warm_ratio"] = ratio(warm, warm+cold)
	c["core.cache.lookups"] = c["core.cache.exact"] + c["core.cache.interval"] + c["core.cache.resume"] + c["core.cache.cold"]
	c["core.cache.saved_ratio"] = ratio(c["core.cache.lookups"]-c["core.cache.cold"], c["core.cache.lookups"])
	if h.r.CellShards > 1 {
		rep.Varying = make(map[string]float64)
		for k, v := range c {
			if strings.HasPrefix(k, "core.cache.") {
				rep.Varying[k] = v
				delete(c, k)
			}
		}
	}

	rep.Outcomes["slo_attainment"] = 100 * ratio(esgHits, esgMeasured)
	rep.Outcomes["cost_per_req"] = ratio(esgCost, esgInst)
	rep.Outcomes["finished_frac"] = ratio(esgInst, esgMeasured)

	if h.traced {
		h.fillTimings(rep, ms.NumGC, runEnd)
	}
}

// fillTimings derives the traced run's host-time metrics and spans.
func (h *harness) fillTimings(rep *report, numGC uint32, runEnd time.Duration) {
	runtime.GC()
	var plan, place, next hist
	var candidates, fits float64
	var gen, cellSum, cellMax, runSum time.Duration
	for _, p := range h.probes {
		plan.merge(&p.plan)
		place.merge(&p.place)
		next.merge(&p.next)
		candidates += float64(p.candidates.Load())
		fits += float64(p.fits.Load())
		gen += p.gen
		last := time.Duration(p.last.Load())
		wall := last - p.makeAt
		runSum += last - p.firstNext
		cellSum += wall
		cellMax = max(cellMax, wall)
	}
	busy := func(x *hist) float64 { return float64(x.sum.Load()) / 1e9 }
	tasks := rep.Counters["controller.tasks"]
	workers := min(max(h.r.Parallel, 1), len(h.probes))
	t := map[string]float64{
		"experiments.cell_max_s":         cellMax.Seconds(),
		"experiments.parallel_eff":       ratio(cellSum.Seconds(), (runEnd-h.minMake()).Seconds()*float64(workers)),
		"workload.gen_s":                 gen.Seconds(),
		"workload.next_busy_s":           busy(&next),
		"sched.plan.calls":               float64(plan.n.Load()),
		"sched.plan.busy_s":              busy(&plan),
		"sched.plan.p50_us":              plan.quantile(0.50) / 1e3,
		"sched.plan.p99_us":              plan.quantile(0.99) / 1e3,
		"sched.plan.max_ms":              float64(plan.max.Load()) / 1e6,
		"sched.plan.calls_per_task":      ratio(float64(plan.n.Load()), tasks),
		"sched.plan.candidates_per_call": ratio(candidates, float64(plan.n.Load())),
		"sched.place.calls":              float64(place.n.Load()),
		"sched.place.busy_s":             busy(&place),
		"sched.place.p50_ns":             place.quantile(0.50),
		"sched.place.p99_ns":             place.quantile(0.99),
		"sched.place.calls_per_task":     ratio(float64(place.n.Load()), tasks),
		"sched.place.fit_ratio":          ratio(fits, float64(place.n.Load())),
		// The cells' run spans less the time inside Plan, Place and Next:
		// the pass loop, dispatch, the event engine, the recorder and the
		// transfer fabric, lumped together.
		"controller.self_s": runSum.Seconds() - busy(&plan) - busy(&place) - busy(&next),
		"runtime.gc_cpu_s":  gcCPUSeconds(),
		"runtime.gc_cycles": float64(numGC),
	}
	rep.Timings = t
	rep.Spans = h.spans(runEnd)
}

// minMake returns when the first cell started.
func (h *harness) minMake() time.Duration {
	first := time.Duration(math.MaxInt64)
	for _, p := range h.probes {
		first = min(first, p.makeAt)
	}
	return first
}

// spans lays out the run as process → {setup, resolve → cell → {setup,
// run}, render}. A cell ends at its last wrapped call, the latest point
// the harness observes inside it.
func (h *harness) spans(runEnd time.Duration) []span {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	busy := func(x *hist) float64 { return float64(x.sum.Load()) / 1e6 }
	end := time.Since(h.start)
	out := []span{
		{ID: 1, Name: "process", Start: 0, End: ms(end)},
		{ID: 2, Parent: 1, Name: "setup", Start: 0, End: ms(h.minMake())},
		{ID: resolveSpan, Parent: 1, Name: "resolve", Start: ms(h.minMake()), End: ms(runEnd)},
		{ID: 4, Parent: 1, Name: "render", Start: ms(runEnd), End: ms(end)},
	}
	for _, p := range h.probes {
		last := time.Duration(p.last.Load())
		id := len(out) + 1
		out = append(out,
			span{ID: id, Parent: resolveSpan, Name: "cell " + p.key, Start: ms(p.makeAt), End: ms(last), Args: map[string]float64{
				"plan_busy_ms":  busy(&p.plan),
				"place_busy_ms": busy(&p.place),
				"next_busy_ms":  busy(&p.next),
				"plan_calls":    float64(p.plan.n.Load()),
				"place_calls":   float64(p.place.n.Load()),
			}},
			span{ID: id + 1, Parent: id, Name: "cell setup", Start: ms(p.makeAt), End: ms(p.firstNext)},
			span{ID: id + 2, Parent: id, Name: "cell run", Start: ms(p.firstNext), End: ms(last), Args: map[string]float64{
				"self_ms": ms(last-p.firstNext) - busy(&p.plan) - busy(&p.place) - busy(&p.next),
			}},
		)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
