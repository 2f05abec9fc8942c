package experiments

import (
	"fmt"
	"math"

	"github.com/esg-sched/esg/internal/baselines"
	"github.com/esg-sched/esg/internal/controller"
	"github.com/esg-sched/esg/internal/core"
	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

// PlanetSpec shapes the planet scenario: the streaming tier above scale —
// thousands of heterogeneous nodes, request counts in the millions, and
// shaped (non-uniform) arrival processes. Requests are never materialized
// (workload.Stream) and latencies are never stored per sample
// (metrics sketch recorder), so peak memory is set by in-flight work, not
// by the request count.
type PlanetSpec struct {
	// Nodes is the invoker count (default 2048, heterogeneous shapes).
	Nodes int
	// LoadFactor compresses the heavy workload's arrival intervals
	// (default Nodes/100 — 20× at the default 2048 nodes). Unlike the
	// scale family, the planet default is calibrated so the fleet sustains
	// the WORST shape's peak rate (burst runs 5× the base rate): the
	// arrival backlog then stays bounded and peak memory is independent of
	// the request count. Push it higher to reproduce scale-style overload.
	LoadFactor float64
	// Requests is the stream length (default 1e6, scaled by the runner's
	// Scale).
	Requests int
	// Arrival selects one arrival shape for the grid; empty runs all
	// three shaped processes (diurnal, burst, multitenant).
	Arrival string
	// Schedulers lists the algorithms to run (default ESG — the planet
	// tier stresses scale, not the comparison; add baselines explicitly).
	Schedulers []string
	// Xfer enables and shapes the data-movement model (zero value: off,
	// byte-identical to pre-fabric builds).
	Xfer XferSpec
}

// planetShapes resolves the spec's arrival selection.
func planetShapes(arrival string) ([]workload.Shape, error) {
	if arrival == "" {
		return []workload.Shape{workload.Diurnal, workload.Burst, workload.MultiTenant}, nil
	}
	s, err := workload.ParseShape(arrival)
	if err != nil {
		return nil, err
	}
	return []workload.Shape{s}, nil
}

// planetMemos is the grid's shared cold work: every cell re-derives the
// same profile-driven artifacts (dominator distributions, baseline
// candidate rankings) because each builds a fresh scheduler, so the grid
// pays each once instead of once per cell — the same contract
// aquatope.TrainingMemo already applies to BO training.
type planetMemos struct {
	dists *core.DistMemo
	// plans shares one baseline ranking memo per scheduler name: rankings
	// are pure in (app, stage, batch bound) for a fixed registry, and the
	// grid's cells differ only in the arrival process.
	plans map[string]*baselines.Memo
}

func newPlanetMemos() *planetMemos {
	return &planetMemos{
		dists: core.NewDistMemo(),
		plans: make(map[string]*baselines.Memo),
	}
}

// attach hangs the shared memos on a freshly built scheduler.
func (m *planetMemos) attach(name string, s sched.Scheduler) {
	if e, ok := s.(*core.ESG); ok {
		e.Dists = m.dists
	}
	if mu, ok := s.(interface{ SetPlanMemo(*baselines.Memo) }); ok {
		memo, ok2 := m.plans[name]
		if !ok2 {
			memo = baselines.NewMemo()
			m.plans[name] = memo
		}
		mu.SetPlanMemo(memo)
	}
}

// PlanetCell builds one planet cell: scheduler × arrival shape over the
// scale application set, consuming a generated stream and recording
// through the sketch recorder.
func (r *Runner) PlanetCell(name string, shape workload.Shape, spec PlanetSpec, memos *planetMemos) Cell {
	apps := workflow.ScaleApps()
	c := r.ComparisonCell(name, workload.Heavy, workflow.Relaxed)
	c.Key = fmt.Sprintf("planet/%s/%s/%dn/%gx/%dr", name, shape, spec.Nodes, spec.LoadFactor, spec.Requests)
	c.Key += spec.Xfer.keySuffix()
	baseMake := c.Make
	c.Make = func() (sched.Scheduler, error) {
		s, err := baseMake()
		if err != nil {
			return nil, err
		}
		memos.attach(name, s)
		return s, nil
	}
	c.Source = func() workload.Source {
		src, err := workload.NewStream(shape, workload.Heavy, spec.LoadFactor,
			spec.Requests, len(apps), rng.New(r.Seed))
		if err != nil {
			// PlanetScenario normalizes the spec before building cells, so
			// a failure here is a caller bug, not input.
			panic(err)
		}
		return src
	}
	c.Tune = func(cfg *controller.Config) {
		cfg.Cluster = ScaleCluster(spec.Nodes)
		cfg.Apps = apps
		// No per-sample series at planet counts: the sketch recorder keeps
		// the run's memory independent of the request count.
		cfg.StreamMetrics = true
		// As in the scale family, the compressed stream spans seconds, so
		// the paper's 50 s time-based warm-up cut would swallow it; 1 ns
		// leaves only the request-fraction warm-up window.
		cfg.WarmupTime = 1
		spec.Xfer.tune(cfg)
	}
	return c
}

// PlanetScenario runs the streaming planet grid — spec.Nodes heterogeneous
// invokers, spec.LoadFactor× the paper's heaviest arrival rate, shaped
// arrival processes, requests in the millions — one cell per scheduler ×
// arrival shape, sharing the grid's cold work across cells. Cells run one
// at a time so the per-cell wall readings stay meaningful.
func PlanetScenario(r *Runner, spec PlanetSpec) (*Table, error) {
	if spec.Nodes <= 0 {
		spec.Nodes = 2048
	}
	if spec.LoadFactor <= 0 {
		spec.LoadFactor = math.Max(1, math.Round(float64(spec.Nodes)/100))
	}
	if spec.Requests <= 0 {
		spec.Requests = int(1e6 * r.Scale)
		if spec.Requests < 20000 {
			spec.Requests = 20000
		}
	}
	spec.Xfer = spec.Xfer.Defaulted()
	if len(spec.Schedulers) == 0 {
		spec.Schedulers = []string{ESG}
	}
	shapes, err := planetShapes(spec.Arrival)
	if err != nil {
		return nil, err
	}
	memos := newPlanetMemos()
	title := fmt.Sprintf("Planet stress: %d nodes, %g× heavy load, %d apps, %d streamed requests",
		spec.Nodes, spec.LoadFactor, len(workflow.ScaleApps()), spec.Requests)
	if spec.Xfer.Enabled {
		title += fmt.Sprintf(", transfers at PCIe %g / NIC %g MB/s",
			spec.Xfer.PCIeMBps, spec.Xfer.NICMBps)
	}
	t := &Table{
		ID:    "planet",
		Title: title,
		Columns: []string{"Scheduler", "Arrival", "Wall (s)", "Sim (s)", "Req/sim-s",
			"Hit rate", "Attain", "Tasks", "Cold", "Warm", "Live peak", "Unfinished"},
	}
	if spec.Xfer.Enabled {
		t.Columns = append(t.Columns, "Cross-MB", "Xfer (s)")
	}
	for _, name := range spec.Schedulers {
		for _, shape := range shapes {
			cell := r.PlanetCell(name, shape, spec, memos)
			wt := r.Wall.Start()
			if err := r.Resolve(cell); err != nil {
				return nil, err
			}
			wall := wt.Seconds()
			res, err := r.cached(cell.Key)
			if err != nil {
				return nil, err
			}
			throughput := 0.0
			if res.SimTime > 0 {
				throughput = float64(res.TotalRecords) / res.SimTime.Seconds()
			}
			row := []string{
				name,
				shape.String(),
				fmt.Sprintf("%.1f", wall),
				fmt.Sprintf("%.1f", res.SimTime.Seconds()),
				fmt.Sprintf("%.0f", throughput),
				pct(res.HitRate),
				pct(res.SLOAttainment()),
				fmt.Sprintf("%d", res.Tasks),
				fmt.Sprintf("%d", res.ColdStarts),
				fmt.Sprintf("%d", res.WarmStarts),
				fmt.Sprintf("%d", res.InstanceLivePeak),
				fmt.Sprintf("%d", res.Unfinished),
			}
			if spec.Xfer.Enabled {
				row = append(row,
					fmt.Sprintf("%.1f", res.Xfer.CrossServerMB),
					fmt.Sprintf("%.2f", res.Xfer.TransferSeconds))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"requests stream from a seeded generator and latencies accumulate in quantile sketches: no per-request state outlives its instance",
		"Live peak is the in-flight instance high-water mark — the figure that bounds memory, independent of the request count",
		"wall readings are host-dependent; everything else is deterministic at a fixed seed",
	)
	return t, nil
}
