package controller

import (
	"reflect"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/core"
	"github.com/esg-sched/esg/internal/fault"
	"github.com/esg-sched/esg/internal/metrics"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

// faultConfig is quickConfig plus a fault spec.
func faultConfig(fs fault.Spec) Config {
	cfg := quickConfig(workflow.Relaxed)
	cfg.Faults = fs
	return cfg
}

// TestZeroFaultSpecBuildsNoInjector pins the zero-fault contract: without a
// fault spec the controller builds no injector, so no fault is drawn, no
// fault statistic is recorded and the fault trace stays empty. Dispatch
// still tracks every task as a flight; only the injector is absent.
func TestZeroFaultSpecBuildsNoInjector(t *testing.T) {
	c, err := New(quickConfig(workflow.Relaxed), core.New(), workload.NewTraceSource(lightTrace(50, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if c.faults != nil {
		t.Fatalf("zero fault spec built an injector: %v", c.faults)
	}
	res := c.Execute()
	if res.Faults.Any() {
		t.Fatalf("fault-free run reported fault stats: %+v", res.Faults)
	}
	if c.FaultTrace() != "" {
		t.Fatalf("fault-free run produced a fault trace")
	}
}

// TestQuietInjectorMatchesFaultFree checks that an injector which never
// fires changes nothing: an MTBF of a million hours and a 1e-12 task
// failure rate must reproduce the zero-spec Result byte for byte and record
// no fault event, with the flat and the fabric transfer model, the plan
// cache off and on. Faulted and fault-free runs share one dispatch shape,
// so only the injector's own draws differ, and those come from streams the
// rest of the run never reads.
func TestQuietInjectorMatchesFaultFree(t *testing.T) {
	quiet := fault.Spec{MTBF: 1e6 * time.Hour, MTTR: time.Second, TaskFailRate: 1e-12}
	seeds := uint64(12)
	if testing.Short() {
		seeds = 1
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		cell := randomMiniCell(seed)
		for _, fabric := range []bool{false, true} {
			for _, plancache := range []bool{false, true} {
				cfg := cell.config(plancache)
				cfg.Noise = profile.DefaultNoise()
				if fabric {
					cfg.Cluster.Topology = cluster.Topology{PCIeMBps: 12000, NICMBps: 1250}
					cfg.Registry = profile.Table3Registry().WithOutputFactor(1)
				}
				ref, err := Run(cfg, core.New(), workload.NewTraceSource(cell.trace))
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = quiet
				c, err := New(cfg, core.New(), workload.NewTraceSource(cell.trace))
				if err != nil {
					t.Fatal(err)
				}
				got := c.Execute()
				if trace := c.FaultTrace(); trace != "" {
					t.Errorf("seed %d fabric=%v plancache=%v: quiet injector recorded faults:\n%s", seed, fabric, plancache, trace)
				}
				if resultJSON(t, ref) != resultJSON(t, got) {
					t.Errorf("seed %d fabric=%v plancache=%v: quiet injector changed the result\nzero spec: %s\nquiet:     %s",
						seed, fabric, plancache, ref.Summary(), got.Summary())
				}
			}
		}
	}
}

// TestCrashRecoveryChurn drives aggressive invoker churn (MTBF far below
// the trace span) and checks the run drains with every instance accounted
// for: completed + abandoned = arrived, crashes observed tasks lost and
// re-driven, recoveries recorded.
func TestCrashRecoveryChurn(t *testing.T) {
	cfg := faultConfig(fault.Spec{MTBF: 300 * time.Millisecond, MTTR: 50 * time.Millisecond})
	cfg.WarmupFraction = -1 // measure everything: the accounting is exact
	cfg.WarmupTime = -1
	tr := lightTrace(150, 3)
	c, err := New(cfg, core.New(), workload.NewTraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	res := c.Execute()
	f := res.Faults
	if f.Crashes == 0 {
		t.Fatalf("no crashes at MTBF %v over a %v trace", cfg.Faults.MTBF, tr.Duration())
	}
	if f.Recoveries == 0 {
		t.Errorf("crashes without recoveries")
	}
	if res.Unfinished != 0 {
		t.Errorf("%d instances neither completed nor abandoned", res.Unfinished)
	}
	if res.Instances+f.FailedInstances != 150 {
		t.Errorf("completed (%d) + failed (%d) != arrivals (150)", res.Instances, f.FailedInstances)
	}
	if f.TasksLost > 0 && f.LostWorkSeconds <= 0 {
		t.Errorf("tasks lost (%d) but no lost work recorded", f.TasksLost)
	}
	if f.MeanRecoveryS() <= 0 {
		t.Errorf("recoveries recorded but mean recovery time is %v", f.MeanRecoveryS())
	}
	if c.FaultTrace() == "" {
		t.Errorf("faulted run produced no trace")
	}
}

// TestTransientRetriesRecover checks the retry policy re-drives transient
// failures to completion: with a generous attempt budget nothing drops and
// every instance still finishes.
func TestTransientRetriesRecover(t *testing.T) {
	cfg := faultConfig(fault.Spec{TaskFailRate: 0.3})
	cfg.RetryLimit = 25
	res, err := Run(cfg, core.New(), workload.NewTraceSource(lightTrace(100, 5)))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Faults
	if f.TaskFailures == 0 {
		t.Fatalf("no transient failures at rate 0.3")
	}
	if f.Retries == 0 {
		t.Errorf("failures without retries")
	}
	if f.DroppedJobs != 0 || f.FailedInstances != 0 {
		t.Errorf("drops under a 25-attempt budget: dropped=%d failed=%d", f.DroppedJobs, f.FailedInstances)
	}
	if res.Unfinished != 0 {
		t.Errorf("%d instances never finished", res.Unfinished)
	}
}

// TestRetryBudgetExhaustion pins the drop path: when every task fails, the
// attempt budget runs out, every job drops, every instance is abandoned —
// and the run still drains instead of spinning forever.
func TestRetryBudgetExhaustion(t *testing.T) {
	cfg := faultConfig(fault.Spec{TaskFailRate: 1})
	res, err := Run(cfg, core.New(), workload.NewTraceSource(lightTrace(60, 9)))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Faults
	if f.DroppedJobs == 0 {
		t.Fatalf("no dropped jobs with every task failing")
	}
	if res.Instances != 0 {
		t.Errorf("%d instances completed with every task failing", res.Instances)
	}
	if res.Unfinished != 0 {
		t.Errorf("%d instances unaccounted after total failure", res.Unfinished)
	}
	if res.SLOAttainment() != 0 {
		t.Errorf("SLO attainment %v with zero completions", res.SLOAttainment())
	}
}

// TestStragglersKilled checks straggler handling: inflated executions that
// blow past the re-dispatch timeout are aborted, counted and retried.
func TestStragglersKilled(t *testing.T) {
	cfg := faultConfig(fault.Spec{StragglerRate: 0.3, StragglerFactor: 50})
	cfg.RetryLimit = 25
	res, err := Run(cfg, core.New(), workload.NewTraceSource(lightTrace(100, 11)))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Faults
	if f.StragglersKilled == 0 {
		t.Fatalf("no stragglers killed at rate 0.3, factor 50")
	}
	if res.Unfinished != 0 {
		t.Errorf("%d instances never finished", res.Unfinished)
	}
	if f.FailedInstances != 0 {
		t.Errorf("%d instances abandoned under a 25-attempt budget", f.FailedInstances)
	}
}

// TestColdStartFailures checks the cold-start failure class is drawn and
// counted separately from transient failures.
func TestColdStartFailures(t *testing.T) {
	cfg := faultConfig(fault.Spec{ColdFailRate: 0.5})
	cfg.RetryLimit = 40
	res, err := Run(cfg, core.New(), workload.NewTraceSource(lightTrace(80, 13)))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Faults
	if f.ColdStartFailures == 0 {
		t.Fatalf("no cold-start failures at rate 0.5")
	}
	if f.TaskFailures != 0 {
		t.Errorf("transient failures (%d) counted with only coldfail configured", f.TaskFailures)
	}
}

// TestFaultScheduleDeterminism is the golden determinism check: the same
// seed reproduces the identical fault trace and the identical result,
// while a different seed draws a different schedule.
func TestFaultScheduleDeterminism(t *testing.T) {
	fs := fault.Spec{
		MTBF: 400 * time.Millisecond, MTTR: 60 * time.Millisecond,
		TaskFailRate: 0.1, ColdFailRate: 0.05, StragglerRate: 0.05,
	}
	run := func(seed uint64) (*metrics.Result, string) {
		cfg := faultConfig(fs)
		cfg.Seed = seed
		c, err := New(cfg, core.New(), workload.NewTraceSource(lightTrace(120, 3)))
		if err != nil {
			t.Fatal(err)
		}
		res := c.Execute()
		return res, c.FaultTrace()
	}
	res1, trace1 := run(1)
	res2, trace2 := run(1)
	if trace1 == "" {
		t.Fatalf("no fault events under a combined spec")
	}
	if trace1 != trace2 {
		t.Fatalf("same seed, different fault traces")
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("same seed, different results")
	}
	_, trace3 := run(2)
	if trace1 == trace3 {
		t.Fatalf("different seeds drew identical fault schedules")
	}
}

// TestShardedLockstepFaults extends TestShardedLockstep to fault
// injection: under crash churn, transient failures and stragglers, two
// runs with fresh schedulers must produce equal Results and identical
// fault traces. The name dates from the deleted within-cell plan sharding.
func TestShardedLockstepFaults(t *testing.T) {
	fs := fault.Spec{
		MTBF: 50 * time.Millisecond, MTTR: 10 * time.Millisecond,
		TaskFailRate: 0.05, StragglerRate: 0.02,
	}
	seeds := uint64(3)
	if testing.Short() {
		seeds = 1
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		cell := randomMiniCell(seed)
		mk := func() (*metrics.Result, string) {
			cfg := cell.config(false)
			cfg.Faults = fs
			c, err := New(cfg, core.New(), workload.NewTraceSource(cell.trace))
			if err != nil {
				t.Fatal(err)
			}
			res := c.Execute()
			return res, c.FaultTrace()
		}
		ref, refTrace := mk()
		got, gotTrace := mk()
		if refTrace != gotTrace {
			t.Errorf("seed %d: rerun fault trace diverged", seed)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("seed %d: rerun faulted result diverged\nfirst:  %s\nsecond: %s", seed, ref.Summary(), got.Summary())
		}
	}
}
