package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/controller"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

func smokeRunner() *Runner {
	r := NewRunner(7, 0.03) // tiny traces: smoke only
	r.Noise = profile.NoNoise()
	r.Overhead = sched.OverheadNone
	return r
}

func TestStaticTables(t *testing.T) {
	t1 := Table1()
	if len(t1.Rows) != 5 || len(t1.Columns) != 6 {
		t.Errorf("table1 shape: %dx%d", len(t1.Rows), len(t1.Columns))
	}
	t3 := Table3()
	if len(t3.Rows) != 6 {
		t.Errorf("table3 rows = %d", len(t3.Rows))
	}
	if !strings.Contains(t3.String(), "deblur") {
		t.Errorf("table3 missing deblur row")
	}
}

func TestFig5SmokeShape(t *testing.T) {
	r := smokeRunner()
	tbl := Fig5(r)
	if len(tbl.Rows) != 3 {
		t.Fatalf("fig5 rows = %d", len(tbl.Rows))
	}
	// heavy first, light last; rates must be ordered.
	if tbl.Rows[0][0] != "heavy" || tbl.Rows[2][0] != "light" {
		t.Errorf("fig5 order: %v", tbl.Rows)
	}
}

func TestRunnerCachesResults(t *testing.T) {
	r := smokeRunner()
	a, err := r.Result(ESG, workload.Light, workflow.Moderate)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Result(ESG, workload.Light, workflow.Moderate)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("cache miss on identical scenario")
	}
}

// TestRunnerListsTruncatedCells checks that a cell cut off at its drain
// deadline is listed and a cell that drained is not.
func TestRunnerListsTruncatedCells(t *testing.T) {
	r := smokeRunner()
	r.Parallel = 2
	cut := r.ComparisonCell(ESG, workload.Light, workflow.Relaxed)
	cut.Key = "ESG/light/relaxed/cut"
	cut.Tune = func(c *controller.Config) { c.DrainTimeout = time.Nanosecond }
	whole := r.ComparisonCell(ESG, workload.Light, workflow.Moderate)
	if got := r.Truncated(); len(got) != 0 {
		t.Errorf("Truncated() = %v before any run", got)
	}
	if err := r.Resolve(whole, cut); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Truncated(), []string{cut.Key}; !slices.Equal(got, want) {
		t.Errorf("Truncated() = %v, want %v", got, want)
	}
}

func TestNewSchedulerNames(t *testing.T) {
	for _, name := range append([]string{ESGNoShare, ESGNoBatch}, Comparison...) {
		s, err := NewScheduler(name, 1)
		if err != nil {
			t.Errorf("NewScheduler(%q): %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("scheduler %q reports name %q", name, s.Name())
		}
	}
	if _, err := NewScheduler("bogus", 1); err == nil {
		t.Errorf("bogus scheduler accepted")
	}
}

func TestSettings(t *testing.T) {
	ss := Settings()
	if len(ss) != 3 {
		t.Fatalf("%d settings", len(ss))
	}
	want := map[string]struct {
		level workload.Level
		slo   workflow.SLOLevel
	}{
		"strict-light":    {workload.Light, workflow.Strict},
		"moderate-normal": {workload.Normal, workflow.Moderate},
		"relaxed-heavy":   {workload.Heavy, workflow.Relaxed},
	}
	for _, s := range ss {
		w, ok := want[s.Name]
		if !ok || s.Level != w.level || s.SLO != w.slo {
			t.Errorf("setting %+v wrong", s)
		}
	}
}

func TestFig6SmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 15 tiny scenarios")
	}
	r := smokeRunner()
	tbl, err := Fig6(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 { // 3 settings × 5 schedulers
		t.Fatalf("fig6 rows = %d", len(tbl.Rows))
	}
	// ESG rows must be normalized to 1.00.
	for _, row := range tbl.Rows {
		if row[1] == ESG && row[3] != "1.00" {
			t.Errorf("ESG normalized cost = %s", row[3])
		}
	}
	// Table4 reuses the same runs — no extra scenarios, same data.
	t4, err := Table4(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 3 {
		t.Errorf("table4 rows = %d", len(t4.Rows))
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"note text"},
	}
	out := tbl.String()
	for _, want := range []string{"== x: demo ==", "a", "note: note text"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in %q", want, out)
		}
	}
}
