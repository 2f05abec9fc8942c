package baselines_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/baselines/fastgshare"
	"github.com/esg-sched/esg/internal/baselines/hasgpu"
	"github.com/esg-sched/esg/internal/baselines/infless"
	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/pricing"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
)

// rankedListsDigest is the SHA-256 of every ranked candidate list the
// three ranking baselines (INFless, FaST-GShare, HAS-GPU) plan over the
// evaluation and scale application sets — every (app, stage) queue at
// lengths 1–40 under the strict, moderate and relaxed SLOs, 15,120 lists.
// It pins ranking content per key: the memo equivalence tests compare the
// same code with and without the memo, and the byte-identity artifacts
// only reach the keys real runs visit, so a comparator or split change
// that moves a rarely reached list shows here first.
const rankedListsDigest = "5ea41919c1e5410b91e5594af7f0f1d957f00a2cc0d5430c7c0f0a38ec035a6d"

func TestRankedListsDigest(t *testing.T) {
	makers := []func() sched.Scheduler{
		func() sched.Scheduler { return infless.New() },
		func() sched.Scheduler { return fastgshare.New() },
		func() sched.Scheduler { return hasgpu.New() },
	}
	reg := profile.Table3Registry()
	h := sha256.New()
	lists := 0
	for _, apps := range [][]*workflow.App{workflow.EvaluationApps(), workflow.ScaleApps()} {
		for _, level := range []workflow.SLOLevel{workflow.Strict, workflow.Moderate, workflow.Relaxed} {
			slos := make([]time.Duration, len(apps))
			for i, a := range apps {
				slos[i] = workflow.SLOFor(a, level, reg)
			}
			for _, mk := range makers {
				e := &sched.Env{
					Registry: reg,
					Oracle:   profile.NewOracle(reg, profile.DefaultSpace(), pricing.Default()),
					Cluster:  cluster.MustNew(cluster.DefaultConfig()),
					Apps:     apps,
					SLOs:     slos,
					Noise:    profile.DefaultNoise(),
				}
				qs := queue.NewSet(apps)
				qs.Bind(e.Cluster)
				s := mk()
				for a, app := range apps {
					for k := 0; k < app.Len(); k++ {
						q := qs.Get(a, k)
						for n := 1; n <= 40; n++ {
							fill(q, app, a, 1, slos[a])
							plan := s.Plan(e, q, 0)
							fmt.Fprintf(h, "%s|%d|%d|%d|%v\n", s.Name(), a, k, n, plan.Candidates)
							lists++
						}
					}
				}
			}
		}
	}
	if lists != 15120 {
		t.Errorf("planned %d ranked lists, want 15120", lists)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != rankedListsDigest {
		t.Errorf("ranked-list digest %s, want %s: a ranking baseline's candidates changed", got, rankedListsDigest)
	}
}
