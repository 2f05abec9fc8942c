package experiments

import (
	"strconv"
	"strings"
	"testing"

	"github.com/esg-sched/esg/internal/sched"
)

// miniXferScale runs a small transfer-enabled scale grid and returns the
// rendered table plus its rows. Wall readings are disabled so the render is
// reproducible byte for byte.
func miniXferScale(t *testing.T, seed uint64, parallel int) (*Table, string) {
	t.Helper()
	r := NewRunner(seed, 1)
	r.Overhead = sched.OverheadNone
	r.Parallel = parallel
	r.Wall.Disable()
	spec := ScaleSpec{Nodes: 64, LoadFactor: 100, Requests: 400,
		Schedulers: []string{ESG, INFless},
		Xfer:       XferSpec{Enabled: true}}
	tbl, err := ScaleScenario(r, spec)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.Render(&sb)
	return tbl, sb.String()
}

// TestXferDeterminism extends the lockstep contract to the data-movement
// model: transfer-enabled artifacts are byte-identical across the worker
// pool and reproducible run to run.
func TestXferDeterminism(t *testing.T) {
	_, seq := miniXferScale(t, 29, 1)
	_, par := miniXferScale(t, 29, 4)
	if seq != par {
		t.Errorf("parallel xfer output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	_, again := miniXferScale(t, 29, 4)
	if seq != again {
		t.Errorf("repeated xfer run with one seed differs")
	}
}

// TestXferLocalityShift is the tentpole's behavioral acceptance: with
// transfers charged, ESG's locality-aware dispatch must move fewer bytes
// across servers than INFless's fragmentation-first placement.
func TestXferLocalityShift(t *testing.T) {
	tbl, _ := miniXferScale(t, 29, 1)
	crossCol := -1
	for i, c := range tbl.Columns {
		if c == "Cross-MB" {
			crossCol = i
		}
	}
	if crossCol < 0 {
		t.Fatalf("transfer-enabled table lacks the Cross-MB column: %v", tbl.Columns)
	}
	cross := map[string]float64{}
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[crossCol], 64)
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		cross[row[0]] = v
	}
	if cross[ESG] <= 0 {
		t.Errorf("ESG moved no bytes cross-server; the model is not engaged")
	}
	if cross[ESG] >= cross[INFless] {
		t.Errorf("ESG cross-server traffic %.1f MB not below INFless %.1f MB", cross[ESG], cross[INFless])
	}
}
