package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/fault"
	"github.com/esg-sched/esg/internal/sched"
)

// TestParseSchedulers pins the -sched resolver: canonicalization through
// the same alias set NewScheduler accepts, and rejection of unknowns,
// duplicates and empty elements.
func TestParseSchedulers(t *testing.T) {
	good := map[string][]string{
		"ESG":                  {ESG},
		"gswarm":               {GSwarm},
		"has-gpu":              {HASGPU},
		"hasgpu":               {HASGPU},
		"fastgshare":           {FaSTGShare},
		"ESG, GSwarm, HAS-GPU": {ESG, GSwarm, HASGPU},
		"orion,AQUATOPE":       {Orion, Aquatope},
		"esg-noshare":          {ESGNoShare},
	}
	for in, want := range good {
		got, err := ParseSchedulers(in)
		if err != nil {
			t.Errorf("ParseSchedulers(%q): %v", in, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ParseSchedulers(%q) = %v, want %v", in, got, want)
		}
	}
	bad := []string{"", "bogus", "ESG,bogus", "ESG,,GSwarm", "ESG,esg", "GSwarm,gswarm", "HAS-GPU,hasgpu"}
	for _, in := range bad {
		if got, err := ParseSchedulers(in); err == nil {
			t.Errorf("ParseSchedulers(%q) accepted: %v", in, got)
		}
	}
}

// TestKnownSchedulersConstructible: every advertised name builds and
// reports itself under exactly that name — the property that keeps -sched
// lists, grid cells and report rows consistent.
func TestKnownSchedulersConstructible(t *testing.T) {
	for _, name := range KnownSchedulers() {
		s, err := NewScheduler(name, 1)
		if err != nil {
			t.Errorf("NewScheduler(%q): %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("scheduler %q reports name %q", name, s.Name())
		}
	}
}

// miniRunner builds a reproducible runner for the miniature grids below.
func miniRunner(seed uint64) *Runner {
	r := NewRunner(seed, 1)
	r.Overhead = sched.OverheadNone
	r.Wall.Disable()
	return r
}

// newScheds is the -sched override the satellite smoke runs exercise: the
// two extension baselines alone.
var newScheds = []string{GSwarm, HASGPU}

func renderTable(t *testing.T, tbl *Table, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.Render(&sb)
	return sb.String()
}

func wantRows(t *testing.T, out string, names ...string) {
	t.Helper()
	for _, name := range names {
		if !strings.Contains(out, name) {
			t.Errorf("table missing %s cells:\n%s", name, out)
		}
	}
}

// TestNewSchedulersInScaleGrid: GSwarm and HAS-GPU run as scale cells.
func TestNewSchedulersInScaleGrid(t *testing.T) {
	spec := ScaleSpec{Nodes: 64, LoadFactor: 100, Requests: 400, Schedulers: newScheds}
	tbl, err := ScaleScenario(miniRunner(42), spec)
	wantRows(t, renderTable(t, tbl, err), GSwarm, HASGPU)
}

// TestNewSchedulersInChaosGrid: the same cells under fault injection —
// GSwarm's pin failover and HAS-GPU's warm-first routing run against
// crash/recovery churn.
func TestNewSchedulersInChaosGrid(t *testing.T) {
	spec := ScaleSpec{Nodes: 64, LoadFactor: 100, Requests: 400, Schedulers: newScheds}
	faults := fault.Spec{MTBF: 2 * time.Second, MTTR: 500 * time.Millisecond, TaskFailRate: 0.02}
	tbl, err := ChaosScenario(miniRunner(42), spec, faults)
	wantRows(t, renderTable(t, tbl, err), GSwarm, HASGPU)
}

// TestNewSchedulersInPlanetGrid: the streaming tier accepts the override
// and attaches the grid's shared split memo to both new schedulers.
func TestNewSchedulersInPlanetGrid(t *testing.T) {
	spec := PlanetSpec{Nodes: 128, LoadFactor: 2, Requests: 2000, Arrival: "burst", Schedulers: newScheds}
	tbl, err := PlanetScenario(miniRunner(42), spec)
	wantRows(t, renderTable(t, tbl, err), GSwarm, HASGPU)
}

// TestNewSchedulersInXferGrid: the data-movement model charges both new
// schedulers' placements (transfer columns present alongside their rows).
func TestNewSchedulersInXferGrid(t *testing.T) {
	spec := ScaleSpec{Nodes: 64, LoadFactor: 100, Requests: 400, Schedulers: newScheds,
		Xfer: XferSpec{Enabled: true}}
	tbl, err := ScaleScenario(miniRunner(42), spec)
	out := renderTable(t, tbl, err)
	wantRows(t, out, GSwarm, HASGPU)
	cross := false
	for _, c := range tbl.Columns {
		if c == "Cross-MB" {
			cross = true
		}
	}
	if !cross {
		t.Errorf("xfer grid missing transfer columns: %v", tbl.Columns)
	}
}

// TestSchedulerOverrideDeterminism: an overridden grid stays deterministic
// run to run and across the parallel runner — the byte-identity contract
// extends to the new cells.
func TestSchedulerOverrideDeterminism(t *testing.T) {
	run := func(parallel int) string {
		r := miniRunner(42)
		r.Parallel = parallel
		spec := ScaleSpec{Nodes: 64, LoadFactor: 100, Requests: 400, Schedulers: newScheds}
		tbl, err := ScaleScenario(r, spec)
		return renderTable(t, tbl, err)
	}
	base := run(1)
	if par := run(4); par != base {
		t.Errorf("parallel run differs:\n--- sequential ---\n%s\n--- parallel ---\n%s", base, par)
	}
}
