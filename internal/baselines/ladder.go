package baselines

import (
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/sched"
)

// Ladder is the Plan step of the pre-planned baselines (Orion, Aquatope,
// GSwarm): per stage, the fixed configuration with its batch clamped to
// each of 1…B, B being the preset batch. Plan slices one rung out of it, so
// a call allocates nothing and every caller shares the rungs read-only.
type Ladder [][]profile.Config

// NewLadder precomputes the rungs of one pre-planned configuration per
// stage.
func NewLadder(cfgs []profile.Config) Ladder {
	l := make(Ladder, len(cfgs))
	for i, cfg := range cfgs {
		rungs := make([]profile.Config, cfg.Batch)
		for b := range rungs {
			rungs[b] = cfg
			rungs[b].Batch = b + 1
		}
		l[i] = rungs
	}
	return l
}

// Plan returns the pre-planned plan of stage for a queue of n ≥ 1 jobs: the
// stage's configuration with its batch clamped to n, recorded as a
// configuration miss (Table 4) when the preset batch exceeds n.
func (l Ladder) Plan(stage, n int) sched.Plan {
	rungs := l[stage]
	b := len(rungs)
	miss := b > n
	if miss {
		b = n
	}
	return sched.Plan{Candidates: rungs[b-1 : b : b], ConfigMiss: miss, PrePlanned: true}
}
