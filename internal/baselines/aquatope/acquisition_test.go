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
// order. Its GP has no grid, so every mean it reads is exact, and every
// candidate gets fresh buffers.
func refTrain(s *Scheduler, env *sched.Env, appIndex int) []profile.Config {
	app := env.Apps[appIndex]
	src := rng.New(s.Seed ^ (uint64(appIndex)+1)*0x9E3779B97F4A7C15)
	target := app.BaselineLatency(env.Registry)
	sloMS := float64(target) / float64(time.Millisecond)
	grid := bo.NewGrid(0.5, optionFeatures(env.Oracle.Space)...)

	var samples []sample
	var byCost []int
	record := func(sm sample) {
		at := sort.Search(len(byCost), func(k int) bool { return samples[byCost[k]].cost > sm.cost })
		byCost = slices.Insert(byCost, at, len(samples))
		samples = append(samples, sm)
	}
	for i := 0; i < s.Bootstrap; i++ {
		var sm sample
		s.randomConfigs(env, app.Len(), src, &sm)
		s.observe(env, appIndex, grid, &sm, src)
		record(sm)
	}
	meanY, varY := meanVar(latencies(samples))
	gp := bo.NewIncrementalGP(0.5, math.Max(varY, 1), math.Max(0.01*varY, 1e-6), meanY)
	for _, sm := range samples {
		if err := gp.Add(sm.feats, nil, sm.latency); err != nil {
			continue
		}
	}
	minCost := s.minPathCost(env, appIndex)
	penaltyPerMS := 20 * float64(minCost) / math.Max(sloMS, 1)
	incumbent := func() int {
		for _, i := range byCost {
			if gp.Mean(samples[i].feats) > sloMS {
				continue
			}
			return i
		}
		return -1
	}
	pool := make([]sample, defaultCandidatePool)
	for round := 0; round < s.Rounds; round++ {
		base := incumbent()
		for pick := 0; pick < s.PerRound; pick++ {
			for i := range pool {
				var cand sample
				if base >= 0 && i%2 == 1 {
					s.mutateConfigs(env, &samples[base], src, &cand)
				} else {
					s.randomConfigs(env, app.Len(), src, &cand)
				}
				s.describe(env, appIndex, grid, &cand)
				pool[i] = cand
			}
			picked := pool[refPick(gp, pool, penaltyPerMS, sloMS)]
			obs := sample{cfgs: picked.cfgs, opts: picked.opts}
			s.observe(env, appIndex, grid, &obs, src)
			record(obs)
			_ = gp.Add(obs.feats, nil, obs.latency)
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
func evalEnv() *sched.Env { return spaceEnv(profile.DefaultSpace()) }

// spaceEnv is evalEnv over another configuration space.
func spaceEnv(space profile.Space) *sched.Env {
	reg := profile.Table3Registry()
	apps := workflow.EvaluationApps()
	slos := make([]time.Duration, len(apps))
	for i, a := range apps {
		slos[i] = workflow.SLOFor(a, workflow.Moderate, reg)
	}
	return &sched.Env{
		Registry: reg,
		Oracle:   profile.NewOracle(reg, space, pricing.Default()),
		Cluster:  cluster.MustNew(cluster.DefaultConfig()),
		Apps:     apps,
		SLOs:     slos,
		Noise:    profile.DefaultNoise(),
	}
}

// TestTrainingMatchesFullScanReference trains every evaluation app with the
// pruned pick and deployment scan and with the frozen full scans: the
// trained configurations must be equal. The quick shape covers 32 seeds on
// the default space and 4 on a space of 384 configurations per stage; the
// paper's shape two seeds.
func TestTrainingMatchesFullScanReference(t *testing.T) {
	type run struct {
		seed                        uint64
		bootstrap, rounds, perRound int
		env                         *sched.Env
	}
	env := evalEnv()
	wide := spaceEnv(profile.Space{
		Batches: []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 20},
		CPUs:    []units.VCPU{1, 2, 3, 4, 5, 6, 7, 8},
		GPUs:    []units.VGPU{1, 2, 4, 7},
	})
	var runs []run
	for seed := uint64(1); seed <= 32; seed++ {
		runs = append(runs, run{seed, 20, 5, 2, env})
	}
	for seed := uint64(1); seed <= 4; seed++ {
		runs = append(runs, run{seed, 20, 5, 2, wide})
	}
	if !testing.Short() {
		for _, seed := range []uint64{42, 7} {
			runs = append(runs, run{seed, DefaultBootstrap, DefaultRounds, DefaultPerRound, env})
		}
	}
	for _, r := range runs {
		s := New(r.seed)
		s.Bootstrap, s.Rounds, s.PerRound = r.bootstrap, r.rounds, r.perRound
		env := r.env
		for a := range env.Apps {
			got, _ := s.train(env, a)
			if want := refTrain(s, env, a); !slices.Equal(got, want) {
				t.Errorf("seed %d shape %d/%d/%d space %d app %d: trained %v, full-scan reference %v",
					r.seed, r.bootstrap, r.rounds, r.perRound, env.Oracle.Space.Size(), a, got, want)
			}
		}
	}
}

// TestGridPointsMatchConfigFeatures checks that a configuration's grid
// point has, bit for bit, the features the trainer computed from its
// values before the grid existed (frozen below), on every configuration
// of the default and small spaces.
func TestGridPointsMatchConfigFeatures(t *testing.T) {
	frozen := func(space profile.Space, c profile.Config) []float64 {
		maxB := float64(space.MaxBatch())
		maxC := float64(space.CPUs[len(space.CPUs)-1])
		maxG := float64(space.GPUs[len(space.GPUs)-1])
		return []float64{
			math.Log2(float64(c.Batch)+1) / math.Log2(maxB+1),
			float64(c.CPU) / maxC,
			float64(c.GPU) / maxG,
		}
	}
	for _, space := range []profile.Space{profile.DefaultSpace(), profile.SmallSpace()} {
		grid := bo.NewGrid(lengthScale, optionFeatures(space)...)
		for b := range space.Batches {
			for c := range space.CPUs {
				for g := range space.GPUs {
					cfg := profile.Config{Batch: space.Batches[b], CPU: space.CPUs[c], GPU: space.GPUs[g]}
					got, want := grid.Point(nil, []int32{int32(b), int32(c), int32(g)}), frozen(space, cfg)
					if !slices.EqualFunc(got, want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
						t.Errorf("%v: grid point %v, features %v", cfg, got, want)
					}
				}
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
		grid := bo.NewGrid(logScale(ls, 0.01, 10), optionFeatures(space)...)
		// Cost is a function of the configuration, as in training.
		scale := logScale(costScale, 1e-3, 1e6)
		weights := [3]float64{scale * src.Float64(), scale * src.Float64(), scale * src.Float64()}
		// random draws a joint configuration and describes it.
		random := func() sample {
			sm := sample{cfgs: make([]profile.Config, m), opts: make([]int32, 3*m)}
			var cost float64
			for i := range sm.cfgs {
				b, c, g := src.IntN(len(space.Batches)), src.IntN(len(space.CPUs)), src.IntN(len(space.GPUs))
				sm.cfgs[i] = profile.Config{Batch: space.Batches[b], CPU: space.CPUs[c], GPU: space.GPUs[g]}
				sm.opts[3*i], sm.opts[3*i+1], sm.opts[3*i+2] = int32(b), int32(c), int32(g)
				cost += weights[0]*float64(sm.cfgs[i].Batch) + weights[1]*float64(sm.cfgs[i].CPU) + weights[2]*float64(sm.cfgs[i].GPU)
			}
			sm.feats, sm.cost = grid.Point(nil, sm.opts), units.Money(cost)
			return sm
		}

		signalVar := logScale(sv, 1e-3, 1e4)
		meanY := 100 * src.Float64()
		gp := bo.NewGridGP(grid, signalVar, logScale(nv, 1e-6, 1e2), meanY)
		for i := 0; i < n; i++ {
			y := meanY + math.Sqrt(signalVar)*(2*src.Float64()-1)*2
			sm := random()
			_ = gp.Add(sm.feats, sm.opts, y) // a degenerate repeat is skipped, as in training
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
				pool[i] = random()
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

// TestTrainingWork pins the GP work of training the four evaluation apps
// at the paper's shape and seed 42: exact kernel rows, table-bound rows
// and variance solves per app. The trained configurations are pinned
// elsewhere; this catches work that grows while they stay the same, as
// when the mean bound loosens and the pick falls back to exact rows.
func TestTrainingWork(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four apps at the paper's shape")
	}
	want := []bo.Work{
		{ExactRows: 1359, BoundRows: 13317, Solves: 1009},
		{ExactRows: 1362, BoundRows: 15083, Solves: 1012},
		{ExactRows: 1352, BoundRows: 15141, Solves: 1002},
		{ExactRows: 1711, BoundRows: 15679, Solves: 1361},
	}
	env := evalEnv()
	if len(env.Apps) != len(want) {
		t.Fatalf("%d evaluation apps, want %d", len(env.Apps), len(want))
	}
	s := New(42)
	for a := range env.Apps {
		if _, got := s.train(env, a); got != want[a] {
			t.Errorf("app %d: work %+v, want %+v", a, got, want[a])
		}
	}
}
