// The cross-scheduler conformance matrix: every scheduler the experiments
// registry can build — ESG, its two ablations, and the six baselines —
// must pass the full property suite.
package conformance_test

import (
	"testing"

	"github.com/esg-sched/esg/internal/baselines/aquatope"
	"github.com/esg-sched/esg/internal/experiments"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/sched/conformance"
)

// factory builds fresh instances through the same registry the scenario
// grids use, so the matrix exercises exactly the constructions production
// runs get. Aquatope's offline BO training is tuned down (as the baseline
// tests do) to keep the matrix quick; tuning changes the trained schedule,
// not any conformance property.
func factory(name string) conformance.Factory {
	return func() (sched.Scheduler, error) {
		s, err := experiments.NewScheduler(name, 42)
		if err != nil {
			return nil, err
		}
		if aq, ok := s.(*aquatope.Scheduler); ok {
			aq.Bootstrap, aq.Rounds, aq.PerRound = 20, 5, 2
		}
		return s, nil
	}
}

func TestConformance(t *testing.T) {
	for _, name := range experiments.KnownSchedulers() {
		t.Run(name, func(t *testing.T) {
			conformance.Run(t, factory(name))
		})
	}
}
