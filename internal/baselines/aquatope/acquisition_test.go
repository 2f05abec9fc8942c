package aquatope

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/bo"
	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/pricing"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/units"
	"github.com/esg-sched/esg/internal/workflow"
)

// refPick is a frozen copy of the pool pick as first written: the
// posterior mean and variance of every candidate, then the smallest score
// in index order. It is the oracle acquisition.pick must match.
func refPick(gp *bo.IncrementalGP, pool []sample, penaltyPerMS, sloMS float64) int {
	feats := make([][]float64, len(pool))
	for i := range pool {
		feats[i] = pool[i].feats
	}
	mus, sigmas := make([]float64, len(pool)), make([]float64, len(pool))
	gp.PredictBatch(feats, mus, sigmas)
	best, bestScore := -1, math.Inf(1)
	for i, sm := range pool {
		score := float64(sm.cost) +
			penaltyPerMS*bo.ExpectedViolation(mus[i], sigmas[i], sloMS) -
			0.3*penaltyPerMS*sigmas[i]
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// refTrain is a frozen copy of train as first written, with the full-scan
// pick (refPick) and the full-scan deployment selection: every sample's
// posterior mean and variance, then the cheapest feasible one in index
// order.
func refTrain(s *Scheduler, env *sched.Env, appIndex int) []profile.Config {
	app := env.Apps[appIndex]
	src := rng.New(s.Seed ^ (uint64(appIndex)+1)*0x9E3779B97F4A7C15)
	target := app.BaselineLatency(env.Registry)
	sloMS := float64(target) / float64(time.Millisecond)

	var samples []sample
	var byCost []int
	record := func(sm sample) {
		at := sort.Search(len(byCost), func(k int) bool { return samples[byCost[k]].cost > sm.cost })
		byCost = slices.Insert(byCost, at, len(samples))
		samples = append(samples, sm)
	}
	for i := 0; i < s.Bootstrap; i++ {
		record(s.observe(env, appIndex, s.randomConfigs(env, app.Len(), src), src))
	}
	meanY, varY := meanVar(latencies(samples))
	gp := bo.NewIncrementalGP(0.5, math.Max(varY, 1), math.Max(0.01*varY, 1e-6), meanY)
	for _, sm := range samples {
		if err := gp.Add(sm.feats, sm.latency); err != nil {
			continue
		}
	}
	minCost := s.minPathCost(env, appIndex)
	penaltyPerMS := 20 * float64(minCost) / math.Max(sloMS, 1)
	incumbent := func() []profile.Config {
		for _, i := range byCost {
			if gp.Mean(samples[i].feats) > sloMS {
				continue
			}
			return samples[i].cfgs
		}
		return nil
	}
	pool := make([]sample, defaultCandidatePool)
	for round := 0; round < s.Rounds; round++ {
		base := incumbent()
		for pick := 0; pick < s.PerRound; pick++ {
			for i := range pool {
				var cand []profile.Config
				if base != nil && i%2 == 1 {
					cand = s.mutateConfigs(env, base, src)
				} else {
					cand = s.randomConfigs(env, app.Len(), src)
				}
				pool[i] = s.describe(env, appIndex, cand)
			}
			obs := s.observe(env, appIndex, pool[refPick(gp, pool, penaltyPerMS, sloMS)].cfgs, src)
			record(obs)
			_ = gp.Add(obs.feats, obs.latency)
		}
	}

	feats := make([][]float64, len(samples))
	for i, sm := range samples {
		feats[i] = sm.feats
	}
	mus, sigmas := make([]float64, len(samples)), make([]float64, len(samples))
	gp.PredictBatch(feats, mus, sigmas)
	var bestFeasible *sample
	for i := range samples {
		sm := &samples[i]
		if mus[i]+0.5*sigmas[i] > sloMS {
			continue
		}
		if bestFeasible == nil || sm.cost < bestFeasible.cost {
			bestFeasible = sm
		}
	}
	if bestFeasible == nil {
		for i := range samples {
			if bestFeasible == nil || samples[i].latency < bestFeasible.latency {
				bestFeasible = &samples[i]
			}
		}
	}
	return bestFeasible.cfgs
}

// evalEnv is the paper's evaluation setting: the four evaluation apps on
// the default space and pricing. Training reads neither the SLOs nor the
// cluster's state.
func evalEnv() *sched.Env {
	reg := profile.Table3Registry()
	apps := workflow.EvaluationApps()
	slos := make([]time.Duration, len(apps))
	for i, a := range apps {
		slos[i] = workflow.SLOFor(a, workflow.Moderate, reg)
	}
	return &sched.Env{
		Registry: reg,
		Oracle:   profile.NewOracle(reg, profile.DefaultSpace(), pricing.Default()),
		Cluster:  cluster.MustNew(cluster.DefaultConfig()),
		Apps:     apps,
		SLOs:     slos,
		Noise:    profile.DefaultNoise(),
	}
}

// TestTrainingMatchesFullScanReference trains every evaluation app with the
// pruned pick and deployment scan and with the frozen full scans: the
// trained configurations must be equal. The quick shape covers 32 seeds;
// the paper's shape two.
func TestTrainingMatchesFullScanReference(t *testing.T) {
	type run struct {
		seed                        uint64
		bootstrap, rounds, perRound int
	}
	var runs []run
	for seed := uint64(1); seed <= 32; seed++ {
		runs = append(runs, run{seed, 20, 5, 2})
	}
	if !testing.Short() {
		for _, seed := range []uint64{42, 7} {
			runs = append(runs, run{seed, DefaultBootstrap, DefaultRounds, DefaultPerRound})
		}
	}
	env := evalEnv()
	for _, r := range runs {
		s := New(r.seed)
		s.Bootstrap, s.Rounds, s.PerRound = r.bootstrap, r.rounds, r.perRound
		for a := range env.Apps {
			if got, want := s.train(env, a), refTrain(s, env, a); !slices.Equal(got, want) {
				t.Errorf("%+v app %d: trained %v, full-scan reference %v", r, a, got, want)
			}
		}
	}
}

// floorMargin is the rounding allowance the pick grants a candidate's
// floor against the best score: its terms are at most P·(|μ − L| + σ₀) in
// size, with σ₀ ≥ σ the prior standard deviation.
func floorMargin(cost, mu, sigma0, penaltyPerMS, sloMS, best float64) float64 {
	return 1e-9 * (math.Abs(cost) + penaltyPerMS*(math.Abs(mu-sloMS)+sigma0) + math.Abs(best))
}

// TestScoreFloor checks the floor's derivation: the two weights bracket
// Φ(±c) for the c at which φ(c) equals the exploration weight, and over a
// grid of means, standard deviations, costs and penalties — σ at and
// around the minimizing σ* = |μ − L|/c included — the score never falls
// below the floor by more than the pick's margin.
func TestScoreFloor(t *testing.T) {
	phi := func(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }
	cdf := func(z float64) float64 { return 0.5 * (1 + math.Erf(z/math.Sqrt2)) }
	c := math.Sqrt(-2 * math.Log(explorationWeight*math.Sqrt(2*math.Pi)))
	if d := phi(c) - explorationWeight; math.Abs(d) > 1e-12 {
		t.Fatalf("φ(%g) − %g = %g, want 0", c, explorationWeight, d)
	}
	if w := cdf(c); !(floorWeightAbove <= w && w-floorWeightAbove < 1e-3) {
		t.Errorf("floorWeightAbove = %g, want within 1e-3 below Φ(c) = %.7f", floorWeightAbove, w)
	}
	if w := cdf(-c); !(floorWeightBelow >= w && floorWeightBelow-w < 1e-3) {
		t.Errorf("floorWeightBelow = %g, want within 1e-3 above Φ(−c) = %.7f", floorWeightBelow, w)
	}

	var devs []float64
	for _, d := range []float64{0, 1e-9, 1e-3, 1, 1e2, 1e4} {
		devs = append(devs, d, -d)
	}
	for _, sloMS := range []float64{0, 250, 1e4} {
		for _, dev := range devs {
			mu := sloMS + dev
			star := math.Abs(mu-sloMS) / c
			for _, sigma := range []float64{0, 1e-12, star, star * (1 - 1e-3), star * (1 + 1e-3), 1e6} {
				for _, cost := range []float64{0, 1, 1e3, 1e6} {
					for _, p := range []float64{0, 1e-3, 1, 1e3, 1e6} {
						score := acquisitionScore(cost, mu, sigma, p, sloMS)
						floor := scoreFloor(cost, mu, p, sloMS)
						if score < floor-floorMargin(cost, mu, sigma, p, sloMS, score) {
							t.Errorf("L=%g μ−L=%g σ=%g cost=%g P=%g: score %.17g below floor %.17g",
								sloMS, mu-sloMS, sigma, cost, p, score, floor)
						}
					}
				}
			}
		}
	}
}

// FuzzAcquisitionPick builds a GP of 1–64 observations over 1–5 stages
// (3–15 feature dimensions) with fuzzed hyperparameters, and a
// 60-candidate pool in which a fuzzed share of candidates repeat earlier
// ones: the pruned pick must return the frozen full scan's index, on two
// pools in a row through one acquisition.
func FuzzAcquisitionPick(f *testing.F) {
	// seed, observations, stages, repeat share (of 255), length scale,
	// signal and noise variance, penalty and cost scale (log-scale
	// codes), SLO offset code, SLO exactly at a candidate's mean.
	f.Add(uint64(1), uint8(40), uint8(2), uint8(0), uint8(128), uint8(128), uint8(64), uint8(128), uint8(128), int8(0), false)
	f.Add(uint64(2), uint8(63), uint8(4), uint8(255), uint8(90), uint8(200), uint8(10), uint8(200), uint8(60), int8(-20), false) // every candidate repeats the first
	f.Add(uint64(3), uint8(25), uint8(0), uint8(40), uint8(30), uint8(100), uint8(150), uint8(255), uint8(255), int8(0), true)   // L exactly at a mean
	f.Add(uint64(4), uint8(0), uint8(3), uint8(120), uint8(255), uint8(0), uint8(0), uint8(0), uint8(10), int8(127), false)
	f.Add(uint64(5), uint8(50), uint8(1), uint8(10), uint8(60), uint8(255), uint8(255), uint8(90), uint8(200), int8(-128), true)
	space := profile.SmallSpace()
	// logScale maps a code onto [lo, hi] geometrically.
	logScale := func(code uint8, lo, hi float64) float64 {
		return lo * math.Pow(hi/lo, float64(code)/255)
	}
	f.Fuzz(func(t *testing.T, seed uint64, obs, stages, repeat, ls, sv, nv, penalty, costScale uint8, sloCode int8, atMean bool) {
		src := rng.New(seed)
		m := int(stages)%5 + 1
		n := int(obs)%64 + 1
		randomCfgs := func() []profile.Config {
			out := make([]profile.Config, m)
			for i := range out {
				out[i] = profile.Config{
					Batch: space.Batches[src.IntN(len(space.Batches))],
					CPU:   space.CPUs[src.IntN(len(space.CPUs))],
					GPU:   space.GPUs[src.IntN(len(space.GPUs))],
				}
			}
			return out
		}
		// Cost is a function of the configuration, as in training.
		scale := logScale(costScale, 1e-3, 1e6)
		weights := [3]float64{scale * src.Float64(), scale * src.Float64(), scale * src.Float64()}
		describe := func(cfgs []profile.Config) sample {
			var cost float64
			for _, c := range cfgs {
				cost += weights[0]*float64(c.Batch) + weights[1]*float64(c.CPU) + weights[2]*float64(c.GPU)
			}
			return sample{cfgs: cfgs, feats: features(space, cfgs), cost: units.Money(cost)}
		}

		signalVar := logScale(sv, 1e-3, 1e4)
		meanY := 100 * src.Float64()
		gp := bo.NewIncrementalGP(logScale(ls, 0.01, 10), signalVar, logScale(nv, 1e-6, 1e2), meanY)
		for i := 0; i < n; i++ {
			y := meanY + math.Sqrt(signalVar)*(2*src.Float64()-1)*2
			_ = gp.Add(describe(randomCfgs()).feats, y) // a degenerate repeat is skipped, as in training
		}
		p := 0.0
		if penalty > 0 {
			p = logScale(penalty, 1e-3, 1e6)
		}

		acq := &acquisition{gp: gp, penaltyPerMS: p}
		for round := 0; round < 2; round++ {
			pool := make([]sample, defaultCandidatePool)
			for i := range pool {
				if i > 0 && src.IntN(255) < int(repeat) {
					pool[i] = pool[src.IntN(i)]
					continue
				}
				pool[i] = describe(randomCfgs())
			}
			slo := meanY + float64(sloCode)/64*math.Sqrt(signalVar)
			if atMean {
				slo = gp.Mean(pool[src.IntN(len(pool))].feats)
			}
			acq.sloMS = slo
			got, want := acq.pick(pool), refPick(gp, pool, p, slo)
			if got != want {
				t.Fatalf("round %d (n=%d, %d stages, P=%g, L=%g): pruned pick %d, full scan %d",
					round, gp.Len(), m, p, slo, got, want)
			}
		}
	})
}
