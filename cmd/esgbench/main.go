// Command esgbench regenerates the tables and figures of the paper's
// evaluation section (§5). Each target reproduces one artifact; "all"
// reproduces everything, sharing scenario runs across artifacts, and
// -scenario scale runs the production-scale stress family instead.
//
// The authoritative flag reference is the binary's own -h output, defined
// once in internal/cli (the README embeds the identical text and
// scripts/checkdocs keeps the two in sync):
//
//	esgbench -h
//
// Artifacts on stdout are deterministic at a fixed seed (see README
// "Determinism guarantee"); progress, cache counters and wall-time
// summaries go to stderr.
package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/esg-sched/esg/internal/cli"
	"github.com/esg-sched/esg/internal/experiments"
	"github.com/esg-sched/esg/internal/fault"
	"github.com/esg-sched/esg/internal/sched"
)

func main() {
	var opts cli.Options
	fs := cli.NewFlagSet(&opts)
	fs.Usage = func() { fmt.Fprint(os.Stderr, cli.UsageText()) }
	fs.Parse(os.Args[1:]) // ExitOnError: parse failures and -h exit here
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "esgbench: %v (run esgbench -h for flags)\n", err)
		os.Exit(2)
	}

	stopProfile := func() {}
	if opts.CPUProfile != "" {
		f, err := os.Create(opts.CPUProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "esgbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "esgbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		// Called on every exit path, not deferred: os.Exit on a failed
		// target must still flush the profile (a profile of the failing
		// run is exactly the one worth keeping).
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopProfile()
	}

	targets := fs.Args()
	if len(targets) == 1 && targets[0] == "all" {
		targets = []string{"table1", "table3", "fig5", "fig6", "fig7", "fig8",
			"table4", "fig9", "fig10", "fig11", "fig12", "sec53"}
	}
	if opts.Scenario == "scale" && !contains(targets, "scale") {
		targets = append(targets, "scale") // keep any explicit targets
	}
	if opts.Scenario == "chaos" && !contains(targets, "chaos") {
		targets = append(targets, "chaos")
	}
	if opts.Scenario == "planet" && !contains(targets, "planet") {
		targets = append(targets, "planet")
	}
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "usage: esgbench [flags] all | table1 table3 table4 fig5..fig12 sec53 scale chaos planet (run esgbench -h for flags)")
		os.Exit(2)
	}

	r := experiments.NewRunner(opts.Seed, opts.Scale)
	switch opts.Overhead {
	case "measured":
		r.Overhead = sched.OverheadMeasured
	case "none":
		r.Overhead = sched.OverheadNone
	case "fixed":
		r.Overhead = sched.OverheadFixed
	default:
		fmt.Fprintf(os.Stderr, "esgbench: unknown -overhead %q (want measured, none or fixed)\n", opts.Overhead)
		os.Exit(2)
	}
	r.Parallel = opts.Parallel
	if r.Parallel <= 0 {
		r.Parallel = runtime.GOMAXPROCS(0)
	}
	if !opts.Wall {
		r.Wall.Disable()
	}
	r.PlanCache = opts.PlanCache
	r.DisableBaselineMemo = !opts.BaselineMemo
	// Zero fields select ScaleScenario's defaults (256 nodes, 100×,
	// 30000 × -scale requests, the adaptive schedulers).
	xferSpec := experiments.XferSpec{}
	if opts.Xfer {
		xferSpec = experiments.XferSpec{Enabled: true, OutFactor: opts.XferOut,
			PCIeMBps: opts.PCIe, NICMBps: opts.NIC}
	}
	scaleSpec = experiments.ScaleSpec{Nodes: opts.Nodes, LoadFactor: opts.Load, Requests: opts.Requests, Replan: opts.Replan, Xfer: xferSpec}
	faultSpec = opts.FaultSpec()
	planetSpec = experiments.PlanetSpec{Nodes: opts.Nodes, LoadFactor: opts.Load, Requests: opts.Requests, Arrival: opts.Arrival, Xfer: xferSpec}
	if opts.Sched != "" {
		scheds, err := experiments.ParseSchedulers(opts.Sched)
		if err != nil {
			fmt.Fprintf(os.Stderr, "esgbench: -sched: %v (run esgbench -h for flags)\n", err)
			os.Exit(2)
		}
		// An empty Schedulers list selects the scenario's default grid, so
		// the override only applies when -sched names at least one.
		scaleSpec.Schedulers = scheds
		planetSpec.Schedulers = scheds
	}
	var progress io.Writer = os.Stderr
	if opts.Quiet {
		progress = nil
	}
	r.Log = progress

	start := time.Now()
	for _, target := range targets {
		table, err := run(r, target)
		if err != nil {
			fmt.Fprintf(os.Stderr, "esgbench: %s: %v\n", target, err)
			stopProfile()
			os.Exit(1)
		}
		table.Render(os.Stdout)
	}
	if progress != nil {
		// Diagnostics only: the memo aggregate is deterministic once all
		// targets resolved (misses = distinct training keys), but it is
		// never part of the stdout artifacts.
		if st := r.AquatopeMemoStats(); st.Hits+st.Misses > 0 {
			fmt.Fprintf(progress, "aquatope training memo: %d hits / %d lookups\n",
				st.Hits, st.Hits+st.Misses)
		}
		fmt.Fprintf(progress, "total wall time: %.1fs\n", time.Since(start).Seconds())
	}
	// A run cut off at its drain deadline left requests unmeasured, so its
	// rows understate what they report: the tables are written, but the
	// command fails.
	if keys := r.Truncated(); len(keys) > 0 {
		fmt.Fprintf(os.Stderr, "esgbench: %d run(s) hit the drain deadline with work left: %s\n",
			len(keys), strings.Join(keys, ", "))
		stopProfile()
		os.Exit(1)
	}
}

// contains reports whether list holds s.
func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// scaleSpec carries the -nodes/-load/-requests/-replan overrides of the
// scale scenario (zero fields select the defaults); faultSpec carries the
// chaos scenario's fault knobs (all zero = no fault injection).
var (
	scaleSpec  experiments.ScaleSpec
	faultSpec  fault.Spec
	planetSpec experiments.PlanetSpec
)

func run(r *experiments.Runner, target string) (*experiments.Table, error) {
	switch target {
	case "scale":
		return experiments.ScaleScenario(r, scaleSpec)
	case "chaos":
		return experiments.ChaosScenario(r, scaleSpec, faultSpec)
	case "planet":
		return experiments.PlanetScenario(r, planetSpec)
	case "table1":
		return experiments.Table1(), nil
	case "table3":
		return experiments.Table3(), nil
	case "table4":
		return experiments.Table4(r)
	case "fig5":
		return experiments.Fig5(r), nil
	case "fig6":
		return experiments.Fig6(r)
	case "fig7":
		return experiments.Fig7(r)
	case "fig8":
		return experiments.Fig8(r)
	case "fig9":
		return experiments.Fig9(r)
	case "fig10":
		return experiments.Fig10(r)
	case "fig11":
		return experiments.Fig11(r)
	case "fig12":
		return experiments.Fig12(r)
	case "sec53":
		return experiments.Sec53(&r.Wall), nil
	default:
		return nil, fmt.Errorf("unknown target (want all, table1, table3, table4, fig5..fig12, sec53, scale, chaos, planet)")
	}
}
