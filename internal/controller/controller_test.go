package controller

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/baselines/infless"
	"github.com/esg-sched/esg/internal/baselines/orion"
	"github.com/esg-sched/esg/internal/core"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

// quickConfig returns a controller config sized for fast tests:
// deterministic (no noise, no measured overhead) with a short warm-up.
func quickConfig(level workflow.SLOLevel) Config {
	return Config{
		SLOLevel:       level,
		Noise:          profile.NoNoise(),
		WarmupFraction: 0.05,
		WarmupTime:     time.Second,
		Seed:           1,
	}
}

func lightTrace(n int, seed uint64) *workload.Trace {
	return workload.Generate(workload.Light, n, 4, rng.New(seed))
}

func TestRunCompletesAllInstances(t *testing.T) {
	res, err := Run(quickConfig(workflow.Moderate), core.New(), workload.NewTraceSource(lightTrace(120, 3)))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Unfinished != 0 {
		t.Errorf("%d instances never finished", res.Unfinished)
	}
	if len(res.Records) != 120 {
		t.Errorf("completed %d of 120", len(res.Records))
	}
	if res.Tasks == 0 {
		t.Errorf("no tasks dispatched")
	}
	if res.TotalCost <= 0 {
		t.Errorf("no cost accrued")
	}
}

func TestEveryJobScheduledExactlyOnce(t *testing.T) {
	// Formal-model constraint: every job is scheduled, and each belongs to
	// exactly one task (Appendix A). Completion of all instances with no
	// double-completion panic implies both.
	cfg := quickConfig(workflow.Relaxed)
	res, err := Run(cfg, core.New(), workload.NewTraceSource(lightTrace(200, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Errorf("unfinished = %d", res.Unfinished)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := quickConfig(workflow.Moderate)
	cfg.Noise = profile.Noise{Sigma: 0.05, Floor: 0.5}
	a, err := Run(cfg, core.New(), workload.NewTraceSource(lightTrace(100, 11)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, core.New(), workload.NewTraceSource(lightTrace(100, 11)))
	if err != nil {
		t.Fatal(err)
	}
	if a.HitRate != b.HitRate || a.TotalCost != b.TotalCost || a.Tasks != b.Tasks {
		t.Errorf("same seed diverged: %v/%v vs %v/%v", a.HitRate, a.TotalCost, b.HitRate, b.TotalCost)
	}
}

func TestSLOLevelMonotonicity(t *testing.T) {
	// Relaxed SLOs must never produce fewer hits than strict ones on the
	// same trace and scheduler.
	tr := lightTrace(150, 5)
	strict, err := Run(quickConfig(workflow.Strict), core.New(), workload.NewTraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := Run(quickConfig(workflow.Relaxed), core.New(), workload.NewTraceSource(lightTrace(150, 5)))
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.HitRate < strict.HitRate {
		t.Errorf("relaxed hit rate %v below strict %v", relaxed.HitRate, strict.HitRate)
	}
}

func TestCostAttributionConserved(t *testing.T) {
	// The sum of per-instance costs over ALL records (including warm-up)
	// must not exceed what tasks could have cost, and must be positive.
	cfg := quickConfig(workflow.Moderate)
	cfg.WarmupFraction = -1 // negative disables: measure everything
	cfg.WarmupTime = -1
	res, err := Run(cfg, core.New(), workload.NewTraceSource(lightTrace(80, 9)))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCost <= 0 {
		t.Errorf("cost not attributed")
	}
	if res.Instances != 80 {
		t.Errorf("measured %d of 80", res.Instances)
	}
}

func TestPrewarmReducesColdStarts(t *testing.T) {
	tr := lightTrace(200, 13)
	withPW, err := Run(quickConfig(workflow.Moderate), core.New(), workload.NewTraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	cfgNo := quickConfig(workflow.Moderate)
	cfgNo.DisablePrewarm = true
	withoutPW, err := Run(cfgNo, core.New(), workload.NewTraceSource(lightTrace(200, 13)))
	if err != nil {
		t.Fatal(err)
	}
	if withPW.ColdStarts >= withoutPW.ColdStarts {
		t.Errorf("pre-warming did not reduce cold starts: %d vs %d",
			withPW.ColdStarts, withoutPW.ColdStarts)
	}
}

func TestOrionMissesCounted(t *testing.T) {
	cfg := quickConfig(workflow.Relaxed)
	res, err := Run(cfg, orion.New(), workload.NewTraceSource(lightTrace(150, 17)))
	if err != nil {
		t.Fatal(err)
	}
	if res.PrePlannedPlans == 0 {
		t.Errorf("Orion produced no pre-planned plans")
	}
}

func TestINFlessRuns(t *testing.T) {
	res, err := Run(quickConfig(workflow.Moderate), infless.New(), workload.NewTraceSource(lightTrace(100, 19)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Errorf("INFless left %d unfinished", res.Unfinished)
	}
}

func TestFixedOverheadCharged(t *testing.T) {
	cfg := quickConfig(workflow.Moderate)
	cfg.Overhead = sched.OverheadFixed
	cfg.FixedOverhead = 2 * time.Millisecond
	res, err := Run(cfg, core.New(), workload.NewTraceSource(lightTrace(60, 23)))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range res.Overheads {
		if d == 2*time.Millisecond {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("fixed overhead never recorded")
	}
}

func TestUtilizationBounds(t *testing.T) {
	res, err := Run(quickConfig(workflow.Moderate), core.New(), workload.NewTraceSource(lightTrace(100, 29)))
	if err != nil {
		t.Fatal(err)
	}
	if res.UtilCPU < 0 || res.UtilCPU > 1 || res.UtilGPU < 0 || res.UtilGPU > 1 {
		t.Errorf("utilization out of bounds: cpu=%v gpu=%v", res.UtilCPU, res.UtilGPU)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.Defaulted()
	if cfg.Cluster.Nodes != 16 || cfg.Space.Size() != 256 {
		t.Errorf("defaults wrong: %d nodes, %d configs", cfg.Cluster.Nodes, cfg.Space.Size())
	}
	if cfg.RecheckLimit != 3 {
		t.Errorf("recheck limit = %d, want 3 (§3.1)", cfg.RecheckLimit)
	}
	if cfg.Quantum <= 0 || cfg.WarmupFraction <= 0 || cfg.DeferFraction <= 0 {
		t.Errorf("zero defaults remain")
	}
	if len(cfg.Apps) != 4 {
		t.Errorf("default apps = %d", len(cfg.Apps))
	}
}

func TestRejectsInvalidCluster(t *testing.T) {
	cfg := quickConfig(workflow.Moderate)
	cfg.Cluster.Nodes = -1
	if _, err := Run(cfg, core.New(), workload.NewTraceSource(lightTrace(10, 1))); err == nil {
		t.Errorf("negative node count accepted")
	}
}

func TestLatenciesAreBounded(t *testing.T) {
	// With no noise and a light load, every measured latency must be at
	// least the fastest possible critical path and below the drain cap.
	cfg := quickConfig(workflow.Moderate)
	res, err := Run(cfg, core.New(), workload.NewTraceSource(lightTrace(120, 31)))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		if rec.Latency <= 0 {
			t.Fatalf("non-positive latency %v", rec.Latency)
		}
		if rec.Latency > 5*time.Minute {
			t.Fatalf("latency %v exceeds the drain timeout", rec.Latency)
		}
	}
}

func TestAblationSchedulersComplete(t *testing.T) {
	for _, s := range []sched.Scheduler{
		core.New(core.WithoutGPUSharing()),
		core.New(core.WithoutBatching()),
	} {
		res, err := Run(quickConfig(workflow.Relaxed), s, workload.NewTraceSource(lightTrace(80, 37)))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Unfinished != 0 {
			t.Errorf("%s left %d unfinished", s.Name(), res.Unfinished)
		}
	}
}

func TestDrainDeadlineTruncationSurfaced(t *testing.T) {
	// A run cut off at the drain deadline must say so in its Result, its
	// summary and its JSON export; a run that drains says nothing.
	res, err := Run(quickConfig(workflow.Moderate), core.New(), workload.NewTraceSource(lightTrace(120, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || strings.Contains(res.Summary(), "truncated") {
		t.Errorf("drained run reported truncated: %s", res.Summary())
	}

	cfg := quickConfig(workflow.Moderate)
	cfg.DrainTimeout = time.Nanosecond
	res, err = Run(cfg, core.New(), workload.NewTraceSource(lightTrace(120, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatalf("run with a 1ns drain timeout not reported truncated (unfinished %d)", res.Unfinished)
	}
	if res.Unfinished == 0 {
		t.Errorf("truncated run left no unfinished instances")
	}
	if !strings.Contains(res.Summary(), " truncated") {
		t.Errorf("summary omits truncation: %s", res.Summary())
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"truncated": true`) {
		t.Errorf("JSON export omits truncation")
	}
}
