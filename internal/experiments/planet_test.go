package experiments

import (
	"strings"
	"testing"

	"github.com/esg-sched/esg/internal/sched"
)

// planetRunner builds a reproducible runner for miniature planet grids:
// wall readings are zeroed and overhead is not measured, so the rendered
// table is a pure function of the seed.
func planetRunner(seed uint64, parallel int) *Runner {
	r := NewRunner(seed, 1)
	r.Overhead = sched.OverheadNone
	r.Parallel = parallel
	r.PlanCache = true
	r.Wall.Disable()
	return r
}

// renderPlanet runs a miniature planet grid and renders its table.
func renderPlanet(t *testing.T, r *Runner, spec PlanetSpec) string {
	t.Helper()
	tbl, err := PlanetScenario(r, spec)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.Render(&sb)
	return sb.String()
}

// miniPlanet is small enough for CI but still exercises every arrival
// shape, the shared grid memos and the sketch recorder.
var miniPlanet = PlanetSpec{Nodes: 128, LoadFactor: 2, Requests: 3000}

func TestPlanetScenarioSmoke(t *testing.T) {
	r := planetRunner(42, 1)
	out := renderPlanet(t, r, miniPlanet)
	for _, shape := range []string{"diurnal", "burst", "multitenant"} {
		if !strings.Contains(out, shape) {
			t.Errorf("planet table missing %s row:\n%s", shape, out)
		}
	}
	if strings.Contains(out, "uniform") {
		t.Errorf("empty Arrival should run only the shaped processes:\n%s", out)
	}
}

func TestPlanetScenarioSingleShape(t *testing.T) {
	spec := miniPlanet
	spec.Arrival = "burst"
	out := renderPlanet(t, planetRunner(42, 1), spec)
	if !strings.Contains(out, "burst") || strings.Contains(out, "diurnal") {
		t.Errorf("-arrival burst should run exactly the burst cell:\n%s", out)
	}
	if _, err := PlanetScenario(planetRunner(42, 1), PlanetSpec{Arrival: "sawtooth", Nodes: 16, Requests: 100}); err == nil {
		t.Errorf("unknown arrival shape accepted")
	}
}

// TestPlanetDeterminism extends the repo's reproducibility contract to the
// streaming tier: the grid's rendered table is byte-identical run-to-run
// and independent of -parallel at a fixed seed.
func TestPlanetDeterminism(t *testing.T) {
	base := renderPlanet(t, planetRunner(42, 1), miniPlanet)
	for name, r := range map[string]*Runner{
		"rerun":      planetRunner(42, 1),
		"parallel 4": planetRunner(42, 4),
	} {
		if out := renderPlanet(t, r, miniPlanet); out != base {
			t.Errorf("%s output differs from baseline:\n--- baseline ---\n%s\n--- %s ---\n%s",
				name, base, name, out)
		}
	}
	if other := renderPlanet(t, planetRunner(43, 1), miniPlanet); other == base {
		t.Errorf("different seeds produced identical planet tables")
	}
}

// TestPlanetSharedMemos pins the grid's cold-work sharing: with three
// arrival shapes over one scheduler the distribution and split memos must
// see hits from the second cell on (same apps, same SLO).
func TestPlanetSharedMemos(t *testing.T) {
	memos := newPlanetMemos()
	r := planetRunner(42, 1)
	spec := miniPlanet
	if spec.Nodes <= 0 {
		t.Fatal("miniPlanet must pin Nodes")
	}
	spec.Schedulers = []string{ESG}
	shapes, err := planetShapes("")
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range shapes {
		if err := r.Resolve(r.PlanetCell(ESG, shape, spec, memos)); err != nil {
			t.Fatal(err)
		}
	}
	st := memos.dists.Stats()
	if st.Misses == 0 {
		t.Fatalf("distribution memo never consulted: %+v", st)
	}
	if st.Hits == 0 {
		t.Errorf("distribution memo saw no cross-cell hits: %+v", st)
	}
}
