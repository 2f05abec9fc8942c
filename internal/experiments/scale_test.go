package experiments

import (
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/controller"
)

// TestScaleQuantumMonotoneInReplan pins the -replan knob's direction: a
// weaker re-plan pressure never yields a shorter scheduling quantum, down
// to the smallest positive float (whose quotient is +Inf), and no
// pressure yields one below the 50 µs floor.
func TestScaleQuantumMonotoneInReplan(t *testing.T) {
	r := NewRunner(42, 1)
	prev := time.Duration(0)
	for _, replan := range []float64{8, 4, 1, 0.5, 1e-6, 1e-12, 1e-13, 1e-300, 5e-324} {
		spec := ScaleSpec{Nodes: 8, LoadFactor: 100, Requests: 50, Replan: replan}
		var cfg controller.Config
		r.ScaleCell(ESG, spec).Tune(&cfg)
		q := cfg.Quantum
		if q == 0 {
			q = controller.DefaultQuantum
		}
		if q < 50*time.Microsecond {
			t.Errorf("replan %g: quantum %v below the 50µs floor", replan, q)
		}
		if q < prev {
			t.Errorf("replan %g: quantum %v shorter than %v at the previous, stronger pressure", replan, q, prev)
		}
		prev = q
	}
}
