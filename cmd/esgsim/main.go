// Command esgsim runs one emulated scenario — a scheduler against a
// workload level and SLO setting — and prints the run's summary: SLO hit
// rates, costs, latency percentiles per application, and scheduling
// diagnostics.
//
// Usage:
//
//	esgsim -scheduler ESG -workload light -slo strict -requests 1000
//
// Schedulers: ESG, INFless, FaST-GShare, Orion, Aquatope, plus the Fig. 12
// ablations ESG-noshare and ESG-nobatch.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/esg-sched/esg/internal/baselines/aquatope"
	"github.com/esg-sched/esg/internal/baselines/fastgshare"
	"github.com/esg-sched/esg/internal/baselines/infless"
	"github.com/esg-sched/esg/internal/baselines/orion"
	"github.com/esg-sched/esg/internal/controller"
	"github.com/esg-sched/esg/internal/core"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

func main() {
	var (
		schedName = flag.String("scheduler", "ESG", "scheduler: ESG, INFless, FaST-GShare, Orion, Aquatope, ESG-noshare, ESG-nobatch")
		level     = flag.String("workload", "light", "workload level: heavy, normal, light")
		slo       = flag.String("slo", "strict", "SLO setting: strict, moderate, relaxed")
		requests  = flag.Int("requests", 1000, "number of application requests")
		seed      = flag.Uint64("seed", 42, "random seed")
		groupSize = flag.Int("group", 3, "ESG function-group size")
		k         = flag.Int("k", core.DefaultK, "ESG configuration priority-queue depth")
		noiseSig  = flag.Float64("noise", 0.05, "execution-time noise sigma")
		measured  = flag.Bool("measured-overhead", false, "charge measured wall-clock scheduling overhead")
		verbose   = flag.Bool("v", false, "print per-app latency detail")
	)
	flag.Parse()

	lv, err := parseLevel(*level)
	if err != nil {
		fatal(err)
	}
	sl, err := parseSLO(*slo)
	if err != nil {
		fatal(err)
	}
	s, err := BuildScheduler(*schedName, *seed, *groupSize, *k)
	if err != nil {
		fatal(err)
	}

	cfg := controller.Config{
		SLOLevel: sl,
		Noise:    profile.Noise{Sigma: *noiseSig, Floor: 0.5},
		Seed:     *seed,
	}
	if *measured {
		cfg.Overhead = sched.OverheadMeasured
	}
	tr := workload.Generate(lv, *requests, len(workflow.EvaluationApps()), rng.New(*seed))

	start := time.Now()
	res, err := controller.Run(cfg, s, workload.NewTraceSource(tr))
	if err != nil {
		fatal(err)
	}

	fmt.Printf("scenario: %s, %s workload, %s SLO, %d requests (sim %.1fs, wall %.2fs)\n",
		res.Scheduler, res.Workload, res.SLOLevel, *requests,
		res.SimTime.Seconds(), time.Since(start).Seconds())
	fmt.Printf("overall : hit rate %.1f%%  total cost %s  mean cost/request %s\n",
		100*res.HitRate, res.TotalCost, res.MeanCost)
	fmt.Printf("tasks   : %d dispatched (%d forced-min)  cold=%d warm=%d  unfinished=%d\n",
		res.Tasks, res.ForcedMin, res.ColdStarts, res.WarmStarts, res.Unfinished)
	fmt.Printf("cluster : CPU util %.1f%%  GPU util %.1f%%\n", 100*res.UtilCPU, 100*res.UtilGPU)
	if res.PrePlannedPlans > 0 {
		fmt.Printf("preplan : %d plans, %d misses (%.1f%% miss rate)\n",
			res.PrePlannedPlans, res.ConfigMisses, 100*res.MissRate())
	}
	if len(res.Overheads) > 0 {
		fmt.Printf("overhead: %s (ms)\n", res.OverheadBox())
	}
	fmt.Println()
	fmt.Printf("%-32s %6s %8s %10s %10s %10s %10s\n", "application", "n", "hit%", "mean ms", "p95 ms", "SLO ms", "cost")
	for _, app := range res.PerApp {
		if app.Instances == 0 {
			continue
		}
		fmt.Printf("%-32s %6d %7.1f%% %10.1f %10.1f %10.1f %10s\n",
			app.Name, app.Instances, 100*app.HitRate, app.MeanLatencyMS, app.P95MS, app.SLOMS, app.Cost)
	}
	if *verbose {
		fmt.Println()
		for _, app := range res.PerApp {
			fmt.Printf("%s p50=%.1fms p95=%.1fms p99=%.1fms\n", app.Name, app.P50MS, app.P95MS, app.P99MS)
		}
		fmt.Println("\ntimeline (10s arrival buckets, all instances incl. warm-up):")
		type bucket struct {
			n, hits int
			lat     time.Duration
		}
		buckets := map[int]*bucket{}
		maxB := 0
		for _, rec := range res.Records {
			b := int(rec.Arrival / (10 * time.Second))
			if buckets[b] == nil {
				buckets[b] = &bucket{}
			}
			buckets[b].n++
			buckets[b].lat += rec.Latency
			if rec.Hit {
				buckets[b].hits++
			}
			if b > maxB {
				maxB = b
			}
		}
		for b := 0; b <= maxB; b++ {
			bk := buckets[b]
			if bk == nil || bk.n == 0 {
				continue
			}
			fmt.Printf("  [%3d-%3ds) n=%4d hit=%5.1f%% meanLat=%7.0fms\n",
				b*10, (b+1)*10, bk.n, 100*float64(bk.hits)/float64(bk.n),
				float64(bk.lat/time.Duration(bk.n))/float64(time.Millisecond))
		}
	}
}

// BuildScheduler constructs a scheduler by name.
func BuildScheduler(name string, seed uint64, groupSize, k int) (sched.Scheduler, error) {
	switch strings.ToLower(name) {
	case "esg":
		return core.New(core.WithGroupSize(groupSize), core.WithK(k)), nil
	case "esg-noshare":
		return core.New(core.WithGroupSize(groupSize), core.WithK(k), core.WithoutGPUSharing()), nil
	case "esg-nobatch":
		return core.New(core.WithGroupSize(groupSize), core.WithK(k), core.WithoutBatching()), nil
	case "infless":
		return infless.New(), nil
	case "fast-gshare", "fastgshare":
		return fastgshare.New(), nil
	case "orion":
		return orion.New(), nil
	case "aquatope":
		return aquatope.New(seed), nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q", name)
	}
}

func parseLevel(s string) (workload.Level, error) {
	switch strings.ToLower(s) {
	case "heavy":
		return workload.Heavy, nil
	case "normal":
		return workload.Normal, nil
	case "light":
		return workload.Light, nil
	default:
		return 0, fmt.Errorf("unknown workload level %q", s)
	}
}

func parseSLO(s string) (workflow.SLOLevel, error) {
	switch strings.ToLower(s) {
	case "strict":
		return workflow.Strict, nil
	case "moderate":
		return workflow.Moderate, nil
	case "relaxed":
		return workflow.Relaxed, nil
	default:
		return 0, fmt.Errorf("unknown SLO setting %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "esgsim:", err)
	os.Exit(1)
}
