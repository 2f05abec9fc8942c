package controller

import (
	"reflect"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/baselines/fastgshare"
	"github.com/esg-sched/esg/internal/baselines/infless"
	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/core"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/units"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

// miniScaleCell is one randomized lockstep scenario: a small heterogeneous
// fleet under a compressed trace over the mixed scale application set —
// the scale scenario's shape at property-test size.
type miniScaleCell struct {
	nodes    int
	load     float64
	requests int
	trace    *workload.Trace
	apps     []*workflow.App
}

func randomMiniCell(seed uint64) miniScaleCell {
	src := rng.New(seed * 0x9E3779B97F4A7C15)
	c := miniScaleCell{
		nodes:    4 + int(src.Uint64()%13),      // 4..16 invokers
		load:     20 + float64(src.Uint64()%80), // 20..99x compression
		requests: 120 + int(src.Uint64()%180),   // 120..299 requests
		apps:     workflow.ScaleApps(),
	}
	tr, err := workload.GenerateCompressed(workload.Heavy, c.load, c.requests, len(c.apps), rng.New(seed))
	if err != nil {
		panic(err)
	}
	c.trace = tr
	return c
}

func (c miniScaleCell) config(plancache bool) Config {
	shapes := make([]units.Resources, c.nodes)
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
	clu := cluster.DefaultConfig()
	clu.Nodes = c.nodes
	clu.NodeShapes = shapes
	return Config{
		Cluster:    clu,
		Apps:       c.apps,
		SLOLevel:   workflow.Relaxed,
		Noise:      profile.NoNoise(),
		WarmupTime: time.Millisecond,
		Seed:       7,
		PlanCache:  plancache,
	}
}

// TestShardedLockstep is the controller's determinism contract as a
// property test: over randomized scale mini-cells, two sequential runs with
// fresh schedulers must produce equal Results — every field, the plan-cache
// counters included, since one planning goroutine per cell makes the order
// of cache lookups a function of the input. The name dates from the
// deleted within-cell plan sharding, whose runs this test compared against
// the sequential controller.
func TestShardedLockstep(t *testing.T) {
	schedulers := map[string]func() sched.Scheduler{
		"ESG":         func() sched.Scheduler { return core.New() },
		"INFless":     func() sched.Scheduler { return infless.New() },
		"FaST-GShare": func() sched.Scheduler { return fastgshare.New() },
	}
	seeds := uint64(3)
	if testing.Short() {
		seeds = 1 // one mini-cell still covers every scheduler × cache combo
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		cell := randomMiniCell(seed)
		for name, mk := range schedulers {
			for _, plancache := range []bool{false, true} {
				ref, err := Run(cell.config(plancache), mk(), cell.trace)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, name, err)
				}
				got, err := Run(cell.config(plancache), mk(), cell.trace)
				if err != nil {
					t.Fatalf("seed %d %s rerun: %v", seed, name, err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("seed %d %s plancache=%v: rerun diverged\nfirst:  %s\nsecond: %s",
						seed, name, plancache, ref.Summary(), got.Summary())
				}
			}
		}
	}
}
