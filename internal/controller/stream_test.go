package controller

import (
	"bytes"
	"testing"

	"github.com/esg-sched/esg/internal/core"
	"github.com/esg-sched/esg/internal/metrics"
	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

func resultJSON(t testing.TB, r *metrics.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, true); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func lightStream(n int, seed uint64) *workload.Stream {
	s, err := workload.NewStream(workload.Uniform, workload.Light, 1, n, 4, rng.New(seed))
	if err != nil {
		panic(err)
	}
	return s
}

// A uniform Stream replays the exact draw sequence of GenerateCompressed,
// so a streaming run and its materialized twin must produce identical
// results — the tentpole byte-identity contract at the controller layer.
func TestStreamRunMatchesTraceRun(t *testing.T) {
	cfg := quickConfig(workflow.Moderate)
	tr := workload.Generate(workload.Light, 300, 4, rng.New(9))
	a, err := Run(cfg, core.New(), workload.NewTraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, core.New(), lightStream(300, 9))
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, a) != resultJSON(t, b) {
		t.Fatalf("stream run diverged from trace run:\n--- trace\n%s\n--- stream\n%s",
			resultJSON(t, a), resultJSON(t, b))
	}
}

// Steady-state instance recycling: the live-instance high-water mark must
// track concurrency, not the request count. Quadrupling the requests at a
// fixed arrival rate should leave the peak roughly flat.
func TestInstanceLivePeakIndependentOfRequestCount(t *testing.T) {
	cfg := quickConfig(workflow.Relaxed)
	cfg.StreamMetrics = true
	peak := func(n int) int {
		res, err := Run(cfg, core.New(), lightStream(n, 21))
		if err != nil {
			t.Fatal(err)
		}
		if res.Unfinished != 0 {
			t.Fatalf("n=%d: %d unfinished", n, res.Unfinished)
		}
		if res.TotalRecords != n {
			t.Fatalf("n=%d: recorded %d", n, res.TotalRecords)
		}
		return res.InstanceLivePeak
	}
	small, large := peak(400), peak(1600)
	if small == 0 {
		t.Fatal("no instances tracked")
	}
	// Allow slack for load transients, but reject anything resembling
	// linear growth (4x requests would mean ~4x peak).
	if large > 2*small {
		t.Fatalf("live peak grew with request count: %d @400 vs %d @1600", small, large)
	}
}

// With the sketch recorder the result carries no per-sample series at all.
func TestStreamMetricsDropPerSampleSeries(t *testing.T) {
	cfg := quickConfig(workflow.Moderate)
	cfg.StreamMetrics = true
	res, err := Run(cfg, core.New(), lightStream(200, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != nil || res.Overheads != nil {
		t.Fatalf("streaming run materialized per-sample series")
	}
	if res.TotalRecords != 200 {
		t.Fatalf("TotalRecords = %d, want 200", res.TotalRecords)
	}
	for _, app := range res.PerApp {
		if app.Instances > 0 && app.P95MS <= 0 {
			t.Fatalf("app %s: sketch percentiles missing", app.Name)
		}
	}
}

// All four arrival shapes must run to completion deterministically.
func TestArrivalShapesComplete(t *testing.T) {
	cfg := quickConfig(workflow.Moderate)
	cfg.StreamMetrics = true
	for _, shape := range []workload.Shape{
		workload.Uniform, workload.Diurnal, workload.Burst, workload.MultiTenant,
	} {
		t.Run(shape.String(), func(t *testing.T) {
			run := func() string {
				s, err := workload.NewStream(shape, workload.Light, 1, 250, 4, rng.New(11))
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(cfg, core.New(), s)
				if err != nil {
					t.Fatal(err)
				}
				if res.Unfinished != 0 {
					t.Fatalf("%d unfinished", res.Unfinished)
				}
				return resultJSON(t, res)
			}
			if run() != run() {
				t.Fatal("nondeterministic across reruns")
			}
		})
	}
}

// BenchmarkStreamRun is the allocation gate for the recycling layer: with
// instance/job pooling and sketch metrics, steady-state allocations per
// request stay bounded as the run grows. Run with -benchmem to inspect.
func BenchmarkStreamRun(b *testing.B) {
	cfg := quickConfig(workflow.Relaxed)
	cfg.StreamMetrics = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, core.New(), lightStream(800, 13))
		if err != nil {
			b.Fatal(err)
		}
		if res.Unfinished != 0 {
			b.Fatal("unfinished instances")
		}
	}
}
