package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/esg-sched/esg/internal/baselines"
	"github.com/esg-sched/esg/internal/baselines/aquatope"
	"github.com/esg-sched/esg/internal/controller"
	"github.com/esg-sched/esg/internal/metrics"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

// Cell is one experiment scenario: a scheduler (built fresh by Make, so
// every run owns an isolated instance) driven over one workload/SLO
// setting. Cells sharing a Key share one run and one cached result.
type Cell struct {
	// Key identifies the scenario in the runner's result cache.
	Key string
	// Make builds the scheduler for the run. It is called at most once
	// per key, inside the worker that executes the cell, so schedulers
	// are never shared across concurrent runs.
	Make func() (sched.Scheduler, error)
	// Level and SLO select the workload setting.
	Level workload.Level
	SLO   workflow.SLOLevel

	// Trace, when non-nil, overrides the level-derived request trace (the
	// scale scenarios compress arrival intervals beyond any Level).
	Trace *workload.Trace
	// Source, when non-nil, overrides both Trace and the level-derived
	// trace with a streaming request source built fresh inside the worker
	// that executes the cell (sources are stateful iterators, so they are
	// never shared across runs). The planet scenario uses generated
	// streams here so its request counts never materialize.
	Source func() workload.Source
	// Tune, when non-nil, adjusts the assembled controller configuration
	// before the run (custom clusters, application sets, timeouts).
	Tune func(*controller.Config)
}

// cellState tracks one key's run: a done channel for waiters plus the
// outcome. States are created exactly once per key under the runner lock;
// res/err are written before done is closed and read only after.
type cellState struct {
	done chan struct{}
	res  *metrics.Result
	err  error
}

// Runner executes scenarios and caches results, so experiments sharing a
// scenario (Figs. 6, 7, 8, 10 and Table 4) run it once. With Parallel > 1
// it fans independent cells out over a bounded worker pool; every run gets
// its own engine, scheduler and RNG streams derived only from Seed, so
// results are byte-identical to the sequential path (determinism requires
// an overhead mode other than OverheadMeasured, whose wall-clock readings
// are inherently run-dependent). All methods are safe for concurrent use.
type Runner struct {
	// Seed drives trace generation, noise and offline training.
	Seed uint64
	// Scale multiplies trace sizes; 1.0 reproduces the full evaluation,
	// smaller values give quick smoke runs.
	Scale float64
	// Noise is the performance-variation model (default 5%).
	Noise profile.Noise
	// Overhead is how scheduling overhead is charged (default: measured
	// wall clock, as the paper does).
	Overhead sched.OverheadMode
	// Wall is the wall-clock sink behind every host-time artifact cell
	// (scale table, §5.3 search times). Disable it and those cells read
	// exactly zero, making full output files byte-comparable across runs.
	Wall metrics.Wall
	// CellShards is ignored: each cell plans on the goroutine that runs it.
	//
	// Deprecated: read only by bench/cmd/esgperf.
	CellShards int
	// Log receives progress lines (nil for silence).
	Log io.Writer

	// Parallel is the worker-pool size for Resolve; <= 1 runs cells
	// sequentially in declaration order.
	Parallel int
	// PlanCache enables the ESG_1Q plan cache on schedulers that support
	// it (sched.PlanCaching). Each run gets its own cache.
	PlanCache bool
	// PlanCacheSize bounds the per-run cache (0 = default).
	PlanCacheSize int
	// DisableBaselineMemo turns the always-on baseline plan memo
	// (INFless/FaST-GShare candidate rankings, see internal/baselines)
	// off for the runner's cells — the un-memoized reference path for
	// A/B equivalence runs and benchmarking (esgbench
	// -baselinememo=false). Output is byte-identical either way.
	DisableBaselineMemo bool

	mu     sync.Mutex
	states map[string]*cellState
	logMu  sync.Mutex

	// aquatopeMemo shares Aquatope's scale-independent offline BO
	// training across the runner's cells (the trained configurations
	// depend on the apps and profiles, never on the workload setting), so
	// a grid pays the training (~0.5 s per application on one core) once
	// per application instead of once per cell.
	aquatopeMemo *aquatope.TrainingMemo
}

// NewRunner returns a Runner with the paper's defaults.
func NewRunner(seed uint64, scale float64) *Runner {
	if scale <= 0 {
		scale = 1
	}
	return &Runner{
		Seed:         seed,
		Scale:        scale,
		Noise:        profile.DefaultNoise(),
		Overhead:     sched.OverheadMeasured,
		states:       make(map[string]*cellState),
		aquatopeMemo: aquatope.NewTrainingMemo(),
	}
}

// AquatopeMemoStats returns the shared BO-training memo's counters.
func (r *Runner) AquatopeMemoStats() sched.TrainingMemoStats {
	return r.aquatopeMemo.Stats()
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log == nil {
		return
	}
	r.logMu.Lock()
	fmt.Fprintf(r.Log, format+"\n", args...)
	r.logMu.Unlock()
}

// Requests returns the trace size for a level at the runner's scale.
func (r *Runner) Requests(level workload.Level) int {
	n := int(float64(baseRequests(level)) * r.Scale)
	if n < 40 {
		n = 40
	}
	return n
}

// Trace generates the deterministic request trace of a level.
func (r *Runner) Trace(level workload.Level) *workload.Trace {
	return workload.Generate(level, r.Requests(level), len(workflow.EvaluationApps()), rng.New(r.Seed))
}

// config assembles the controller configuration for a setting, scaling the
// warm-up window with the trace when running below full scale.
func (r *Runner) config(level workload.Level, slo workflow.SLOLevel) controller.Config {
	cfg := controller.Config{
		SLOLevel:      slo,
		Noise:         r.Noise,
		Overhead:      r.Overhead,
		Seed:          r.Seed,
		PlanCache:     r.PlanCache,
		PlanCacheSize: r.PlanCacheSize,
	}
	if r.Scale < 1 {
		tr := r.Trace(level)
		warm := time.Duration(0.4 * float64(tr.Duration()))
		if warm < time.Second {
			warm = time.Second
		}
		cfg.WarmupTime = warm
	}
	return cfg
}

// ComparisonCell builds the cell of one named scheduler in one setting —
// the (scheduler, setting) grid of Figs. 6–8/10/12 and Table 4.
func (r *Runner) ComparisonCell(name string, level workload.Level, slo workflow.SLOLevel) Cell {
	return Cell{
		Key: fmt.Sprintf("%s/%s/%s", name, level, slo),
		Make: func() (sched.Scheduler, error) {
			s, err := NewScheduler(name, r.Seed)
			if aq, ok := s.(*aquatope.Scheduler); ok {
				aq.Memo = r.aquatopeMemo
			}
			if r.DisableBaselineMemo {
				if mu, ok := s.(baselines.MemoUser); ok {
					mu.PlanMemo().Disable()
				}
			}
			return s, err
		},
		Level: level,
		SLO:   slo,
	}
}

// Resolve runs every not-yet-cached cell, fanning out over the worker pool
// when Parallel > 1. Cells already resolved (or being resolved by a
// concurrent Resolve) are waited for, not re-run. It returns the first
// error among the given cells in argument order.
func (r *Runner) Resolve(cells ...Cell) error {
	type work struct {
		cell Cell
		st   *cellState
	}
	var mine []work
	var waits []*cellState

	r.mu.Lock()
	for _, c := range cells {
		if st, ok := r.states[c.Key]; ok {
			waits = append(waits, st)
			continue
		}
		st := &cellState{done: make(chan struct{})}
		r.states[c.Key] = st
		mine = append(mine, work{cell: c, st: st})
	}
	r.mu.Unlock()

	if len(mine) > 0 {
		workers := r.Parallel
		if workers < 1 {
			workers = 1
		}
		if workers > len(mine) {
			workers = len(mine)
		}
		if workers == 1 {
			for _, w := range mine {
				w.st.res, w.st.err = r.runCell(w.cell)
				close(w.st.done)
			}
		} else {
			jobs := make(chan work)
			var wg sync.WaitGroup
			wg.Add(workers)
			for i := 0; i < workers; i++ {
				go func() {
					defer wg.Done()
					for w := range jobs {
						w.st.res, w.st.err = r.runCell(w.cell)
						close(w.st.done)
					}
				}()
			}
			for _, w := range mine {
				jobs <- w
			}
			close(jobs)
			wg.Wait()
		}
	}
	for _, st := range waits {
		<-st.done
	}
	for _, c := range cells {
		r.mu.Lock()
		st := r.states[c.Key]
		r.mu.Unlock()
		if st.err != nil {
			return st.err
		}
	}
	return nil
}

// runCell executes one scenario with an isolated scheduler, engine and
// RNG streams (all derived only from the runner's seed).
func (r *Runner) runCell(c Cell) (*metrics.Result, error) {
	s, err := c.Make()
	if err != nil {
		return nil, err
	}
	r.logf("running %s ...", c.Key)
	wall := r.Wall.Start()
	cfg := r.config(c.Level, c.SLO)
	if c.Tune != nil {
		c.Tune(&cfg)
	}
	var res *metrics.Result
	if c.Source != nil {
		res, err = controller.RunSource(cfg, s, c.Source())
	} else {
		tr := c.Trace
		if tr == nil {
			tr = r.Trace(c.Level)
		}
		res, err = controller.Run(cfg, s, tr)
	}
	if err != nil {
		return nil, err
	}
	r.logf("  %s (%.1fs wall)", res.Summary(), wall.Seconds())
	return res, nil
}

// cached returns the resolved result of a key. It is only valid after a
// Resolve covering the key has returned.
func (r *Runner) cached(key string) (*metrics.Result, error) {
	r.mu.Lock()
	st, ok := r.states[key]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("experiments: scenario %q was never resolved", key)
	}
	<-st.done
	return st.res, st.err
}

// Result runs (or returns the cached result of) one scenario.
func (r *Runner) Result(schedName string, level workload.Level, slo workflow.SLOLevel) (*metrics.Result, error) {
	c := r.ComparisonCell(schedName, level, slo)
	if err := r.Resolve(c); err != nil {
		return nil, err
	}
	return r.cached(c.Key)
}

// ResultWith runs a scenario with a custom scheduler instance (used by the
// sensitivity and ablation sweeps) and caches it under the given key. For
// parallel fan-out across many custom schedulers, build Cells with
// factories and call Resolve instead.
func (r *Runner) ResultWith(key string, s sched.Scheduler, level workload.Level, slo workflow.SLOLevel) (*metrics.Result, error) {
	c := Cell{
		Key:   key,
		Make:  func() (sched.Scheduler, error) { return s, nil },
		Level: level,
		SLO:   slo,
	}
	if err := r.Resolve(c); err != nil {
		return nil, err
	}
	return r.cached(c.Key)
}
