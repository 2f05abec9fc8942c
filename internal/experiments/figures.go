package experiments

import (
	"fmt"

	"github.com/esg-sched/esg/internal/stats"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

// Fig5 reproduces the job-arrival-interval distributions of the three
// workload settings (paper Fig. 5): summary statistics of the uniform
// interval draws per level.
func Fig5(r *Runner) *Table {
	t := &Table{
		ID:      "fig5",
		Title:   "Job arrival intervals per workload setting",
		Columns: []string{"Workload", "Requests", "Min (ms)", "Mean (ms)", "Max (ms)", "Rate (req/s)"},
	}
	for _, level := range []workload.Level{workload.Heavy, workload.Normal, workload.Light} {
		tr := r.Trace(level)
		ivs := stats.DurationsToMillis(tr.Intervals())
		t.Rows = append(t.Rows, []string{
			level.String(),
			fmt.Sprintf("%d", len(tr.Requests)),
			msF(stats.Percentile(ivs, 0)),
			msF(stats.Mean(ivs)),
			msF(stats.Percentile(ivs, 100)),
			fmt.Sprintf("%.1f", tr.MeanRatePerSecond()),
		})
	}
	t.Notes = append(t.Notes,
		"paper ranges: heavy [10,16.8]ms, normal [20,33.6]ms, light [40,67.2]ms")
	return t
}

// comparisonCells enumerates the full (scheduler × setting) grid shared by
// Figs. 6, 7, 8, 10 and Table 4, so one Resolve call fans every cell out
// over the runner's worker pool.
func comparisonCells(r *Runner, schedulers []string, settings []Setting) []Cell {
	cells := make([]Cell, 0, len(schedulers)*len(settings))
	for _, s := range settings {
		for _, name := range schedulers {
			cells = append(cells, r.ComparisonCell(name, s.Level, s.SLO))
		}
	}
	return cells
}

// Fig6 reproduces the headline comparison (paper Fig. 6): average SLO hit
// rate and total cost (normalized to ESG) for the five schedulers across
// the three settings.
func Fig6(r *Runner) (*Table, error) {
	t := &Table{
		ID:      "fig6",
		Title:   "Average SLO hit rate and normalized cost (ESG = 1.00)",
		Columns: []string{"Setting", "Scheduler", "SLO hit rate", "Norm. cost", "Cold", "Tasks"},
	}
	if err := r.Resolve(comparisonCells(r, Comparison, Settings())...); err != nil {
		return nil, err
	}
	for _, s := range Settings() {
		esgRes, err := r.Result(ESG, s.Level, s.SLO)
		if err != nil {
			return nil, err
		}
		base := float64(esgRes.TotalCost)
		if base <= 0 {
			base = 1
		}
		for _, name := range Comparison {
			res, err := r.Result(name, s.Level, s.SLO)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				s.Name, name, pct(res.HitRate), norm(float64(res.TotalCost), base),
				fmt.Sprintf("%d", res.ColdStarts), fmt.Sprintf("%d", res.Tasks),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: ESG has the highest hit rate everywhere at the lowest cost; INFless costs the most")
	return t, nil
}

// Fig7 reproduces the per-application end-to-end latency view in the
// relaxed-heavy setting (paper Fig. 7): latency statistics against each
// app's SLO for every scheduler.
func Fig7(r *Runner) (*Table, error) {
	t := &Table{
		ID:      "fig7",
		Title:   "End-to-end latency per application, relaxed-heavy",
		Columns: []string{"Application", "Scheduler", "n", "Mean (ms)", "P50 (ms)", "P95 (ms)", "SLO (ms)"},
	}
	if err := r.Resolve(comparisonCells(r, Comparison, []Setting{RelaxedHeavy})...); err != nil {
		return nil, err
	}
	for ai, app := range appOrder() {
		for _, name := range Comparison {
			res, err := r.Result(name, workload.Heavy, workflow.Relaxed)
			if err != nil {
				return nil, err
			}
			a := res.PerApp[ai]
			t.Rows = append(t.Rows, []string{
				app.Name, name, fmt.Sprintf("%d", a.Instances),
				msF(a.MeanLatencyMS), msF(a.P50MS), msF(a.P95MS), msF(a.SLOMS),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: ESG latencies sit below but close to the SLO; the 5-stage expanded app suffers most under INFless/FaST-GShare")
	return t, nil
}

// Fig8 reproduces the per-application SLO hit rates and costs across all
// three settings (paper Fig. 8).
func Fig8(r *Runner) (*Table, error) {
	t := &Table{
		ID:      "fig8",
		Title:   "Per-application SLO hit rate and normalized cost",
		Columns: []string{"Setting", "Application", "Scheduler", "Hit rate", "Norm. cost"},
	}
	if err := r.Resolve(comparisonCells(r, Comparison, Settings())...); err != nil {
		return nil, err
	}
	for _, s := range Settings() {
		esgRes, err := r.Result(ESG, s.Level, s.SLO)
		if err != nil {
			return nil, err
		}
		for ai, app := range appOrder() {
			base := float64(esgRes.PerApp[ai].Cost)
			if base <= 0 {
				base = 1
			}
			for _, name := range Comparison {
				res, err := r.Result(name, s.Level, s.SLO)
				if err != nil {
					return nil, err
				}
				a := res.PerApp[ai]
				t.Rows = append(t.Rows, []string{
					s.Name, app.Name, name, pct(a.HitRate),
					norm(float64(a.Cost), base),
				})
			}
		}
	}
	return t, nil
}

// Fig10 reproduces the scheduling-overhead distribution of ESG across the
// three settings (paper Fig. 10): box statistics in milliseconds with the
// default group size 3, one sample (n) per task dispatched from a plan.
func Fig10(r *Runner) (*Table, error) {
	t := &Table{
		ID:      "fig10",
		Title:   "ESG scheduling overhead distribution (ms), group size 3",
		Columns: []string{"Setting", "n", "Min", "Q1", "Median", "Q3", "Max", "Mean"},
	}
	if err := r.Resolve(comparisonCells(r, []string{ESG}, Settings())...); err != nil {
		return nil, err
	}
	for _, s := range Settings() {
		res, err := r.Result(ESG, s.Level, s.SLO)
		if err != nil {
			return nil, err
		}
		b := res.OverheadBox()
		t.Rows = append(t.Rows, []string{
			s.Name, fmt.Sprintf("%d", b.N),
			msF3(b.Min), msF3(b.Q1), msF3(b.Median), msF3(b.Q3), msF3(b.Max), msF3(b.Mean),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: overhead under 10 ms, growing from strict to relaxed settings (less pruning)",
		"overhead is the measured wall clock of this repository's ESG_1Q implementation",
	)
	return t, nil
}

// Fig12 reproduces the ablation study in the relaxed-heavy setting (paper
// Fig. 12): full ESG versus ESG without GPU sharing and without batching.
func Fig12(r *Runner) (*Table, error) {
	t := &Table{
		ID:      "fig12",
		Title:   "Ablation: GPU sharing and batching, relaxed-heavy",
		Columns: []string{"Variant", "SLO hit rate", "Norm. cost", "GPU util", "Mean latency (ms)"},
	}
	if err := r.Resolve(comparisonCells(r, []string{ESG, ESGNoShare, ESGNoBatch}, []Setting{RelaxedHeavy})...); err != nil {
		return nil, err
	}
	esgRes, err := r.Result(ESG, workload.Heavy, workflow.Relaxed)
	if err != nil {
		return nil, err
	}
	base := float64(esgRes.TotalCost)
	if base <= 0 {
		base = 1
	}
	for _, name := range []string{ESG, ESGNoShare, ESGNoBatch} {
		res, err := r.Result(name, workload.Heavy, workflow.Relaxed)
		if err != nil {
			return nil, err
		}
		var meanLat float64
		var n int
		for _, a := range res.PerApp {
			meanLat += a.MeanLatencyMS * float64(a.Instances)
			n += a.Instances
		}
		if n > 0 {
			meanLat /= float64(n)
		}
		t.Rows = append(t.Rows, []string{
			name, pct(res.HitRate), norm(float64(res.TotalCost), base),
			pct(res.UtilGPU), msF(meanLat),
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: removing GPU sharing prolongs waiting (jobs queue for whole GPUs); removing batching raises cost",
	)
	return t, nil
}
