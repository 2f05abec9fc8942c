package experiments

import (
	"fmt"
	"time"

	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/controller"
	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/units"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

// ScaleSpec shapes the production-scale stress scenario: a cluster and load
// far beyond the paper's 16-node testbed, exercising the simulation hot
// path at the regime the ROADMAP targets (many nodes, heavy traffic, many
// concurrent applications).
type ScaleSpec struct {
	// Nodes is the invoker count (default 256, heterogeneous shapes).
	Nodes int
	// LoadFactor compresses the heavy workload's arrival intervals
	// (default 100 — 100× the paper's heaviest arrival rate).
	LoadFactor float64
	// Requests is the trace length (default 30000, scaled by the
	// runner's Scale).
	Requests int
	// Replan multiplies re-planning pressure (default 1): the
	// controller's scheduling quantum is divided by it, so every AFW
	// queue is revisited — and the adaptive schedulers re-plan — Replan×
	// as often (fractions below 1 relax the cadence instead). It
	// stresses exactly the path the plan cache's feasibility intervals
	// are built for: the same stage groups searched again and again under
	// a slowly tightening target.
	Replan float64
	// Schedulers lists the algorithms to stress (default ESG, INFless,
	// FaST-GShare — the adaptive planners; the offline ones add nothing
	// to a hot-path stress). With the transfer model on, the default
	// widens to the full comparison set: data movement is where the
	// placement policies diverge.
	Schedulers []string
	// Xfer enables and shapes the data-movement model (zero value: off,
	// byte-identical to pre-fabric builds).
	Xfer XferSpec
}

// DefaultScaleSpec returns the 256-node / 100×-load / 8-application
// scenario.
func DefaultScaleSpec() ScaleSpec {
	return ScaleSpec{Nodes: 256, LoadFactor: 100, Requests: 30000,
		Schedulers: []string{ESG, INFless, FaSTGShare}}
}

// ScaleCluster builds a heterogeneous invoker fleet of the given size:
// repeating waves of standard paper nodes (16 vCPU + 7 vGPU), double-CPU
// nodes, half-size nodes (8 vCPU + 4 vGPU) and GPU-light nodes — the
// Appendix-A heterogeneous-hardware shape at production scale.
func ScaleCluster(nodes int) cluster.Config {
	cfg := cluster.DefaultConfig()
	shapes := make([]units.Resources, nodes)
	for i := range shapes {
		switch i % 4 {
		case 0, 1:
			shapes[i] = units.Resources{CPU: 16, GPU: 7}
		case 2:
			shapes[i] = units.Resources{CPU: 32, GPU: 7}
		default:
			shapes[i] = units.Resources{CPU: 8, GPU: 4}
		}
	}
	cfg.Nodes = nodes
	cfg.NodeShapes = shapes
	return cfg
}

// ScaleTrace generates the compressed heavy trace over the scale app set.
func ScaleTrace(seed uint64, spec ScaleSpec, apps int) *workload.Trace {
	tr, err := workload.GenerateCompressed(workload.Heavy, spec.LoadFactor, spec.Requests, apps, rng.New(seed))
	if err != nil {
		// ScaleScenario normalizes the spec (positive LoadFactor and
		// Requests) before building cells, so a failure here is a caller
		// bug, not input.
		panic(err)
	}
	return tr
}

// ScaleCell builds one scale-scenario cell for a named scheduler.
func (r *Runner) ScaleCell(name string, spec ScaleSpec) Cell {
	apps := workflow.ScaleApps()
	c := r.ComparisonCell(name, workload.Heavy, workflow.Relaxed)
	c.Key = fmt.Sprintf("scale/%s/%dn/%gx/%dr", name, spec.Nodes, spec.LoadFactor, spec.Requests)
	if spec.Replan > 0 && spec.Replan != 1 {
		c.Key += fmt.Sprintf("/replan%g", spec.Replan)
	}
	c.Key += spec.Xfer.keySuffix()
	c.Trace = ScaleTrace(r.Seed, spec, len(apps))
	c.Tune = func(cfg *controller.Config) {
		cfg.Cluster = ScaleCluster(spec.Nodes)
		cfg.Apps = apps
		// The compressed trace spans seconds, not minutes, so the
		// paper's 50 s time-based warm-up cut would swallow it whole;
		// 1 ns disables that cut, leaving only the default 10 %
		// request-fraction warm-up window.
		cfg.WarmupTime = 1
		if spec.Replan > 0 && spec.Replan != 1 {
			q := time.Duration(float64(controller.DefaultQuantum) / spec.Replan)
			if q < 50*time.Microsecond {
				q = 50 * time.Microsecond
			}
			cfg.Quantum = q
		}
		spec.Xfer.tune(cfg)
	}
	return c
}

// ScaleScenario runs the production-scale stress family — spec.Nodes
// heterogeneous invokers, spec.LoadFactor× the paper's heaviest arrival
// rate, eight concurrent applications — once per scheduler, and reports
// simulated throughput against wall-clock cost. Cells run one at a time so
// the per-cell wall readings stay meaningful.
func ScaleScenario(r *Runner, spec ScaleSpec) (*Table, error) {
	if spec.Nodes <= 0 {
		spec.Nodes = 256
	}
	if spec.LoadFactor <= 0 {
		spec.LoadFactor = 100
	}
	if spec.Requests <= 0 {
		spec.Requests = int(30000 * r.Scale)
		if spec.Requests < 1000 {
			spec.Requests = 1000
		}
	}
	if spec.Replan <= 0 {
		spec.Replan = 1
	}
	spec.Xfer = spec.Xfer.Defaulted()
	if len(spec.Schedulers) == 0 {
		if spec.Xfer.Enabled {
			spec.Schedulers = Comparison
		} else {
			spec.Schedulers = DefaultScaleSpec().Schedulers
		}
	}
	title := fmt.Sprintf("Scale stress: %d nodes, %g× heavy load, %d apps, %d requests",
		spec.Nodes, spec.LoadFactor, len(workflow.ScaleApps()), spec.Requests)
	if spec.Replan != 1 {
		title += fmt.Sprintf(", %g× re-plan pressure", spec.Replan)
	}
	if spec.Xfer.Enabled {
		title += fmt.Sprintf(", transfers at PCIe %g / NIC %g MB/s",
			spec.Xfer.PCIeMBps, spec.Xfer.NICMBps)
	}
	t := &Table{
		ID:    "scale",
		Title: title,
		Columns: []string{"Scheduler", "Wall (s)", "Sim (s)", "Req/sim-s", "Hit rate",
			"Tasks", "Forced", "Cold", "Warm", "Unfinished"},
	}
	if spec.Xfer.Enabled {
		t.Columns = append(t.Columns, "Cross-MB", "Xfer (s)")
	}
	for _, name := range spec.Schedulers {
		cell := r.ScaleCell(name, spec)
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
			// TotalRecords, not len(Records): identical under the exact
			// recorder, and the only record count a streaming run has.
			throughput = float64(res.TotalRecords) / res.SimTime.Seconds()
		}
		row := []string{
			name,
			fmt.Sprintf("%.1f", wall),
			fmt.Sprintf("%.1f", res.SimTime.Seconds()),
			fmt.Sprintf("%.0f", throughput),
			pct(res.HitRate),
			fmt.Sprintf("%d", res.Tasks),
			fmt.Sprintf("%d", res.ForcedMin),
			fmt.Sprintf("%d", res.ColdStarts),
			fmt.Sprintf("%d", res.WarmStarts),
			fmt.Sprintf("%d", res.Unfinished),
		}
		if spec.Xfer.Enabled {
			row = append(row,
				fmt.Sprintf("%.1f", res.Xfer.CrossServerMB),
				fmt.Sprintf("%.2f", res.Xfer.TransferSeconds))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"wall readings are host-dependent; everything else is deterministic at a fixed seed",
		"the hot-path acceptance bar: this table completes in minutes, not hours",
	)
	return t, nil
}
