// Package cli defines cmd/esgbench's flag surface in one place, so the
// binary's -h output, the README's flag reference and the docs checker can
// never drift: the README embeds UsageText verbatim and scripts/checkdocs
// fails CI when it differs (run `go run ./scripts/checkdocs -fix` to
// regenerate the embedded block).
package cli

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"github.com/esg-sched/esg/internal/fault"
	"github.com/esg-sched/esg/internal/workload"
)

// Options carries every esgbench flag. Zero values of the scale-scenario
// knobs (Nodes, Load, Requests, Replan) select ScaleScenario's defaults.
type Options struct {
	Seed         uint64
	Scale        float64
	Parallel     int
	PlanCache    bool
	BaselineMemo bool
	Overhead     string
	Wall         bool
	Quiet        bool
	Scenario     string
	Nodes        int
	Load         float64
	Requests     int
	Replan       float64
	Arrival      string
	Sched        string
	CPUProfile   string

	// Chaos-scenario fault knobs (valid only with -scenario chaos; all
	// zero means no fault injection, which is byte-identical to scale).
	MTBF            time.Duration
	MTTR            time.Duration
	TaskFail        float64
	ColdFail        float64
	Straggler       float64
	StragglerFactor float64

	// Data-movement knobs (valid only with -scenario scale/chaos/planet).
	// Without -xfer the transfer model stays disabled and artifacts are
	// byte-identical to pre-fabric builds.
	Xfer    bool
	XferOut float64
	PCIe    float64
	NIC     float64

	// CellShards is ignored; each cell plans on one goroutine.
	//
	// Deprecated: read only by bench/cmd/esgperf.
	CellShards int
}

// synopsis heads the help text; the flag defaults below it are printed by
// the flag package itself, so they are always the binary's real defaults.
const synopsis = `usage: esgbench [flags] all
       esgbench [flags] table1 table3 table4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 sec53
       esgbench [flags] -scenario scale
       esgbench [flags] -scenario chaos -mtbf 30s -mttr 2s -taskfail 0.01
       esgbench [flags] -scenario planet -arrival diurnal

Targets name the paper's §5 artifacts to regenerate ("all" expands to every
one of them); -scenario scale instead runs the production-scale stress
family, -scenario chaos runs it under deterministic fault injection
(invoker crash/recovery churn, task failures, stragglers — see the fault
flags), and -scenario planet runs the streaming tier above scale
(thousands of nodes, millions of requests pulled from a seeded generator,
latencies sketched instead of stored — peak memory independent of the
request count). Flags:

`

// NewFlagSet binds every esgbench flag to o and returns the flag set
// (flag.ExitOnError, so -h prints the usage and exits 0).
func NewFlagSet(o *Options) *flag.FlagSet {
	fs := flag.NewFlagSet("esgbench", flag.ExitOnError)
	fs.Uint64Var(&o.Seed, "seed", 42, "random seed; every random stream (traces, noise, offline training, fault schedules) derives from it")
	fs.Float64Var(&o.Scale, "scale", 1.0, "trace-size multiplier; 1.0 is the full evaluation")
	fs.IntVar(&o.Parallel, "parallel", 1, "worker-pool size for independent scenario runs (0 = GOMAXPROCS); output is byte-identical to -parallel 1 at the same seed when -overhead is not \"measured\"")
	fs.IntVar(&o.CellShards, "cellshards", 1, "ignored: each cell plans on one goroutine (kept so older command lines still parse)")
	fs.BoolVar(&o.PlanCache, "plancache", false, "enable the memoized ESG_1Q plan cache (per run: 4096 entries, 5ms GSLO buckets, each entry answering a feasibility interval of targets)")
	fs.BoolVar(&o.BaselineMemo, "baselinememo", true, "keep the always-on baseline plan memo (INFless/FaST-GShare/HAS-GPU candidate rankings); -baselinememo=false re-ranks on every Plan call — the un-memoized reference for A/B equivalence and benchmarking, byte-identical output")
	fs.StringVar(&o.Overhead, "overhead", "measured", "how scheduling overhead is charged on the simulated clock: measured (paper default, wall clock — run-dependent), none, or fixed")
	fs.BoolVar(&o.Wall, "wall", true, "take wall-clock readings for the artifacts' host-time cells (the scale table's Wall column, sec53's ms columns); -wall=false zeroes them so two runs' full output files diff byte-identically")
	fs.BoolVar(&o.Quiet, "quiet", false, "suppress per-scenario progress and counter summaries on stderr")
	fs.StringVar(&o.Scenario, "scenario", "paper", "scenario family: paper (the §5 artifacts), scale — the production-scale stress run (256 heterogeneous nodes, 100x the heavy arrival rate, 8 concurrent applications) — chaos, the scale run under deterministic fault injection, or planet, the streaming tier (2048 nodes, millions of generated requests, sketched metrics)")
	fs.IntVar(&o.Nodes, "nodes", 0, "scale/chaos/planet scenario: invoker count (default 256; planet 2048)")
	fs.Float64Var(&o.Load, "load", 0, "scale/chaos/planet scenario: arrival-rate multiplier over heavy (default 100; planet nodes/100, calibrated so the fleet sustains every arrival shape's peak rate)")
	fs.IntVar(&o.Requests, "requests", 0, "scale/chaos/planet scenario: request count (default 30000 x -scale; planet 1000000 x -scale)")
	fs.Float64Var(&o.Replan, "replan", 0, "scale/chaos scenario: re-plan pressure multiplier — divides the 2ms scheduling quantum so queues are re-planned that much more often (default 1)")
	fs.StringVar(&o.Arrival, "arrival", "", "planet scenario: arrival shape — uniform, diurnal, burst or multitenant (empty runs the three shaped processes)")
	fs.StringVar(&o.Sched, "sched", "", "scale/chaos/planet scenario: comma-separated scheduler list overriding the scenario's default set — ESG, ESG-noshare, ESG-nobatch, INFless, FaST-GShare, Orion, Aquatope, GSwarm, HAS-GPU (empty keeps the default grid)")
	fs.DurationVar(&o.MTBF, "mtbf", 0, "chaos scenario: mean time between invoker crashes, exponentially distributed per invoker (0 = no crashes)")
	fs.DurationVar(&o.MTTR, "mttr", 0, "chaos scenario: mean invoker recovery time (default 10s when -mtbf is set)")
	fs.Float64Var(&o.TaskFail, "taskfail", 0, "chaos scenario: per-task transient failure probability in [0,1]")
	fs.Float64Var(&o.ColdFail, "coldfail", 0, "chaos scenario: per-cold-start failure probability in [0,1]")
	fs.Float64Var(&o.Straggler, "straggler", 0, "chaos scenario: per-task straggler probability in [0,1]; stragglers run -stragglerfactor slower and are re-dispatched at the controller's timeout")
	fs.Float64Var(&o.StragglerFactor, "stragglerfactor", 0, "chaos scenario: execution-time multiplier of stragglers (default 8)")
	fs.BoolVar(&o.Xfer, "xfer", false, "scale/chaos/planet scenario: enable the data-movement model — inter-stage handoffs move the producer's output over per-invoker PCIe/NIC links with deterministic fair-share contention, placement weighs warm starts against transfer cost, and metrics report cross-server bytes and transfer time")
	fs.Float64Var(&o.XferOut, "xferout", 1, "with -xfer: per-stage output size as a multiple of the function's Table 3 input size")
	fs.Float64Var(&o.PCIe, "pcie", 12000, "with -xfer: per-invoker host-GPU PCIe bandwidth in MB/s (0 = unconstrained)")
	fs.Float64Var(&o.NIC, "nic", 1250, "with -xfer: per-invoker cross-node NIC bandwidth in MB/s (0 = unconstrained)")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	return fs
}

// FaultSpec assembles the fault-injection spec from the chaos knobs.
func (o *Options) FaultSpec() fault.Spec {
	return fault.Spec{
		MTBF:            o.MTBF,
		MTTR:            o.MTTR,
		TaskFailRate:    o.TaskFail,
		ColdFailRate:    o.ColdFail,
		StragglerRate:   o.Straggler,
		StragglerFactor: o.StragglerFactor,
	}
}

// Validate rejects flag combinations the scenarios would misinterpret:
// negative scenario knobs, an unknown -scenario, and fault knobs outside
// -scenario chaos (where they would be silently ignored).
func (o *Options) Validate() error {
	switch o.Scenario {
	case "paper", "scale", "chaos", "planet":
	default:
		return fmt.Errorf("unknown -scenario %q (want paper, scale, chaos or planet)", o.Scenario)
	}
	if o.Arrival != "" {
		if o.Scenario != "planet" {
			return fmt.Errorf("-arrival requires -scenario planet")
		}
		if _, err := workload.ParseShape(o.Arrival); err != nil {
			return fmt.Errorf("-arrival: %v", err)
		}
	}
	if o.Scenario == "planet" && o.Replan != 0 {
		return fmt.Errorf("-replan applies to -scenario scale/chaos, not planet")
	}
	if o.Sched != "" {
		switch o.Scenario {
		case "scale", "chaos", "planet":
		default:
			return fmt.Errorf("-sched requires -scenario scale, chaos or planet")
		}
		// Name resolution (aliases, duplicates) lives with the scheduler
		// registry in internal/experiments; here we only reject a list
		// that is structurally empty, which every resolver would.
		for _, name := range strings.Split(o.Sched, ",") {
			if strings.TrimSpace(name) == "" {
				return fmt.Errorf("-sched: empty scheduler name in list %q", o.Sched)
			}
		}
	}
	if o.Nodes < 0 {
		return fmt.Errorf("-nodes must be >= 0 (0 selects the default), got %d", o.Nodes)
	}
	if o.Load < 0 {
		return fmt.Errorf("-load must be >= 0 (0 selects the default), got %g", o.Load)
	}
	if o.Requests < 0 {
		return fmt.Errorf("-requests must be >= 0 (0 selects the default), got %d", o.Requests)
	}
	if o.Replan < 0 {
		return fmt.Errorf("-replan must be >= 0 (0 selects the default), got %g", o.Replan)
	}
	if o.Scale <= 0 {
		return fmt.Errorf("-scale must be > 0, got %g", o.Scale)
	}
	spec := o.FaultSpec()
	if o.Scenario != "chaos" && spec != (fault.Spec{}) {
		return fmt.Errorf("fault flags (-mtbf, -mttr, -taskfail, -coldfail, -straggler, -stragglerfactor) require -scenario chaos")
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if !o.Xfer {
		// The satellite knobs are only meaningful with the model on;
		// silently ignoring a changed value would misreport the run.
		if o.XferOut != 1 || o.PCIe != 12000 || o.NIC != 1250 {
			return fmt.Errorf("transfer flags (-xferout, -pcie, -nic) require -xfer")
		}
		return nil
	}
	switch o.Scenario {
	case "scale", "chaos", "planet":
	default:
		return fmt.Errorf("-xfer requires -scenario scale, chaos or planet")
	}
	if o.XferOut <= 0 {
		return fmt.Errorf("-xferout must be > 0, got %g", o.XferOut)
	}
	if o.PCIe < 0 || o.NIC < 0 {
		return fmt.Errorf("-pcie and -nic must be >= 0, got %g and %g", o.PCIe, o.NIC)
	}
	if o.PCIe == 0 && o.NIC == 0 {
		return fmt.Errorf("-xfer needs at least one constrained link: set -pcie or -nic above 0")
	}
	return nil
}

// UsageText renders the canonical esgbench help text: the synopsis plus
// the flag package's own rendering of every flag and default. This is the
// single source of truth the README block is generated from.
func UsageText() string {
	var o Options
	fs := NewFlagSet(&o)
	var sb strings.Builder
	sb.WriteString(synopsis)
	fs.SetOutput(&sb)
	fs.PrintDefaults()
	return sb.String()
}
