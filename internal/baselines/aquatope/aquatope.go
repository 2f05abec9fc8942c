// Package aquatope re-implements the Aquatope baseline as the paper's
// comparison frames it (§4.2): an offline Bayesian-optimization process
// profiles each application — 100 bootstrap samples, then 50 rounds of 5
// acquisition-guided samples — builds a Gaussian-process performance model
// over joint per-stage configurations, and deploys the statistically best
// configuration statically. Being offline, it cannot adapt to dynamic
// queue lengths, which Table 4 quantifies as configuration misses.
package aquatope

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/esg-sched/esg/internal/baselines"
	"github.com/esg-sched/esg/internal/bo"
	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/queue"
	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/units"
)

// Training shape (§4.2).
const (
	DefaultBootstrap     = 100
	DefaultRounds        = 50
	DefaultPerRound      = 5
	defaultCandidatePool = 60
)

// Scheduler is the Aquatope baseline.
type Scheduler struct {
	Bootstrap int
	Rounds    int
	PerRound  int
	// Seed drives the offline profiling runs.
	Seed uint64
	// Memo, when non-nil, shares trained configurations across scheduler
	// instances whose training inputs are identical (the offline process
	// is scale-independent: it never sees the workload, so every scenario
	// cell of a grid re-derives the same result). Nil trains locally.
	Memo *TrainingMemo

	plans map[int]baselines.Ladder // app index -> trained per-stage configs
	// keys holds each app's training key once the first Plan has queued
	// the apps' training in Memo.
	keys []string
}

// TrainingMemo shares Aquatope's offline BO training across schedulers.
// Entries are keyed by the full training-input signature — seed, training
// shape, application structure, function profiles, configuration space,
// pricing, noise and transfer model — so a hit is guaranteed to return
// exactly the configurations local training would have produced.
//
// A scheduler's first Plan queues the training of every app; RunQueued
// lets an idle goroutine (a runner worker between cells) train queued
// keys, while Plan trains a key itself when nobody has claimed it. A Plan
// that needs a key another goroutine is training trains other queued keys
// meanwhile, and waits only when none is left: a Plan that reaches the
// keys in a drainer's order would otherwise idle through each of the
// drainer's trainings. Each key trains once, on whichever goroutine
// claims it first. Safe for concurrent use.
type TrainingMemo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	queue   []*memoEntry // registration order; claimed entries are skipped
	hits    uint64
	misses  uint64
}

type memoEntry struct {
	// train is the queued training, nil once a goroutine has claimed it,
	// so a trained entry keeps nothing of the Env that queued it.
	train  func() []profile.Config
	looked bool // a Plan has looked the key up
	done   chan struct{}
	cfgs   []profile.Config
}

// claim takes the entry's training if nobody has; m.mu must be held.
func (e *memoEntry) claim() func() []profile.Config {
	train := e.train
	e.train = nil
	return train
}

// run trains a claimed entry and releases its waiters.
func (e *memoEntry) run(train func() []profile.Config) {
	e.cfgs = train()
	close(e.done)
}

// trained reports whether the entry's configurations are ready.
func (e *memoEntry) trained() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// NewTrainingMemo returns an empty shared training memo.
func NewTrainingMemo() *TrainingMemo {
	return &TrainingMemo{entries: make(map[string]*memoEntry)}
}

// Stats returns the memo's aggregate counters: each key's first lookup is
// its miss, whoever trained it, and every later lookup a hit. Which
// scheduler instance records the miss for a shared key is
// execution-order-dependent under a parallel runner, but the aggregate is
// not: once a grid has resolved, misses equal the number of distinct
// training keys looked up and hits the lookups they saved — so the
// aggregate is the counter surfaced to users, never a per-run export (the
// deterministic artifacts must stay byte-identical between sequential and
// parallel runs).
func (m *TrainingMemo) Stats() sched.TrainingMemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return sched.TrainingMemoStats{Hits: m.hits, Misses: m.misses}
}

// enqueue registers key's training without running it. A key already
// registered keeps its entry.
func (m *TrainingMemo) enqueue(key string, train func() []profile.Config) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; ok {
		return
	}
	e := &memoEntry{train: train, done: make(chan struct{})}
	m.entries[key] = e
	m.queue = append(m.queue, e)
}

// RunQueued trains the queued entries nobody has claimed, one at a time
// on the calling goroutine, in the order they were queued, and returns
// when none is left. It never waits on a key another goroutine is
// training.
func (m *TrainingMemo) RunQueued() {
	for m.runNext() {
	}
}

// runNext trains the oldest queued entry nobody has claimed, on the
// calling goroutine, and reports whether there was one.
func (m *TrainingMemo) runNext() bool {
	m.mu.Lock()
	var e *memoEntry
	var train func() []profile.Config
	for train == nil && len(m.queue) > 0 {
		e, m.queue = m.queue[0], m.queue[1:]
		train = e.claim()
	}
	m.mu.Unlock()
	if train == nil {
		return false
	}
	e.run(train)
	return true
}

// cfgs returns the trained configurations of a queued key, training them
// on the calling goroutine when nobody has claimed the key. While another
// goroutine trains the key, the caller trains other queued keys instead
// of idling, and waits only once none is left.
func (m *TrainingMemo) cfgs(key string) []profile.Config {
	m.mu.Lock()
	e := m.entries[key]
	if e.looked {
		m.hits++
	} else {
		e.looked = true
		m.misses++
	}
	train := e.claim()
	m.mu.Unlock()
	if train != nil {
		e.run(train)
		return e.cfgs
	}
	for !e.trained() && m.runNext() {
	}
	<-e.done
	return e.cfgs
}

// New returns an Aquatope scheduler with the paper's training shape.
func New(seed uint64) *Scheduler {
	return &Scheduler{
		Bootstrap: DefaultBootstrap,
		Rounds:    DefaultRounds,
		PerRound:  DefaultPerRound,
		Seed:      seed,
		plans:     make(map[int]baselines.Ladder),
	}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "Aquatope" }

// Plan implements sched.Scheduler: the offline-trained configuration of the
// stage, clamped (and counted as a miss) when its preset batch exceeds the
// queue. Offline training makes runtime overhead negligible (§5.2), so no
// overhead is charged.
func (s *Scheduler) Plan(env *sched.Env, q *queue.AFW, now time.Duration) sched.Plan {
	ladder, ok := s.plans[q.AppIndex]
	if !ok {
		ladder = baselines.NewLadder(s.trainCached(env, q.AppIndex))
		s.plans[q.AppIndex] = ladder
	}
	return ladder.Plan(q.Stage, q.Len())
}

// trainCached trains through the shared memo when one is attached. The
// first call queues every app's training there, so idle goroutines can
// train the apps this scheduler has not reached yet. The queued closures
// read only the scheduler's seed and training shape and the Env's static
// parts (apps, registry, oracle, noise, transfer model).
func (s *Scheduler) trainCached(env *sched.Env, appIndex int) []profile.Config {
	if s.Memo == nil {
		cfgs, _ := s.train(env, appIndex)
		return cfgs
	}
	if s.keys == nil {
		s.keys = make([]string, len(env.Apps))
		for i := range env.Apps {
			s.keys[i] = s.trainingKey(env, i)
			s.Memo.enqueue(s.keys[i], func() []profile.Config {
				cfgs, _ := s.train(env, i)
				return cfgs
			})
		}
	}
	return s.Memo.cfgs(s.keys[appIndex])
}

// trainingKey names everything train consumes, so equal keys imply
// identical training outcomes: the seed and training shape, the
// application's position, name and baseline latency, each stage's profile
// parameters, the configuration space, pricing, the noise model and the
// inter-stage transfer estimate.
func (s *Scheduler) trainingKey(env *sched.Env, appIndex int) string {
	app := env.Apps[appIndex]
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed=%d;shape=%d/%d/%d;app=%d/%s;L=%d;noise=%g/%g;hop=%d;price=%v/%v",
		s.Seed, s.Bootstrap, s.Rounds, s.PerRound, appIndex, app.Name,
		int64(app.BaselineLatency(env.Registry)),
		env.Noise.Sigma, env.Noise.Floor, int64(env.HopTransfer()),
		env.Oracle.Pricing.CPURate, env.Oracle.Pricing.GPURate)
	space := env.Oracle.Space
	fmt.Fprintf(&sb, ";space=%v/%v/%v", space.Batches, space.CPUs, space.GPUs)
	for i := 0; i < app.Len(); i++ {
		fn := env.Registry.MustLookup(app.Stage(i).Function)
		fmt.Fprintf(&sb, ";fn=%s/%d/%g/%g/%g/%g",
			fn.Name, int64(fn.BaseExec), fn.CPUFraction, fn.ParallelFrac,
			fn.CPUBatchSlope, fn.GPUBatchSlope)
	}
	return sb.String()
}

// sample is one joint configuration of an application: an acquisition
// candidate, or once observed an offline profiling observation.
type sample struct {
	cfgs []profile.Config
	// opts holds each stage's batch, vCPU and vGPU option indices in the
	// space, three per stage: the configuration's point on the GP's grid.
	opts    []int32
	feats   []float64
	latency float64 // observed noisy end-to-end latency, milliseconds
	cost    units.Money
}

// train runs the offline BO process for one application and returns the
// configurations it deploys and the GP's work. Training targets the
// application's nominal latency L (the moderate objective) rather than the
// deployed SLO: the offline process profiles the application in isolation
// and cannot anticipate the deployment's SLO tightness or queue dynamics —
// the rigidity §5.2 and Table 4 quantify.
func (s *Scheduler) train(env *sched.Env, appIndex int) ([]profile.Config, bo.Work) {
	app := env.Apps[appIndex]
	src := rng.New(s.Seed ^ (uint64(appIndex)+1)*0x9E3779B97F4A7C15)
	target := app.BaselineLatency(env.Registry)
	sloMS := float64(target) / float64(time.Millisecond)
	grid := bo.NewGrid(lengthScale, optionFeatures(env.Oracle.Space)...)

	// samples holds every observation; byCost lists their indices in
	// (cost, index) order.
	var samples []sample
	var byCost []int
	record := func(sm sample) {
		at := sort.Search(len(byCost), func(k int) bool { return samples[byCost[k]].cost > sm.cost })
		byCost = slices.Insert(byCost, at, len(samples))
		samples = append(samples, sm)
	}

	// Bootstrap: random joint configurations.
	for i := 0; i < s.Bootstrap; i++ {
		var sm sample
		s.randomConfigs(env, app.Len(), src, &sm)
		s.observe(env, appIndex, grid, &sm, src)
		record(sm)
	}

	// Fit priors from the bootstrap set, then run acquisition rounds with
	// incremental GP updates.
	meanY, varY := meanVar(latencies(samples))
	gp := bo.NewGridGP(grid, math.Max(varY, 1), math.Max(0.01*varY, 1e-6), meanY)
	for _, sm := range samples {
		if err := gp.Add(sm.feats, sm.opts, sm.latency); err != nil {
			// Numerically degenerate duplicate; skip the point.
			continue
		}
	}

	// Penalty scale: violating the SLO by its full length costs as much as
	// ~20 cheapest executions — strong feasibility pressure.
	minCost := s.minPathCost(env, appIndex)
	penaltyPerMS := 20 * float64(minCost) / math.Max(sloMS, 1)

	// incumbent is the index of the cheapest sample the GP currently
	// believes feasible, the lowest-indexed among equal costs, or −1;
	// acquisition candidates mix global random draws with local mutations
	// of it (standard acquisition maximization practice).
	incumbent := func() int {
		for _, i := range byCost {
			if !meanAbove(gp, &samples[i], sloMS) {
				return i
			}
		}
		return -1
	}

	// The pool's candidates are all drawn before any is predicted;
	// prediction consumes no randomness, so the draws are unchanged. Each
	// slot keeps its buffers across picks, and the picked candidate is
	// copied out before it is observed, so no sample aliases a slot.
	pool := make([]sample, defaultCandidatePool)
	acq := &acquisition{gp: gp, penaltyPerMS: penaltyPerMS, sloMS: sloMS}
	for round := 0; round < s.Rounds; round++ {
		base := incumbent()
		for pick := 0; pick < s.PerRound; pick++ {
			for i := range pool {
				if base >= 0 && i%2 == 1 {
					s.mutateConfigs(env, &samples[base], src, &pool[i])
				} else {
					s.randomConfigs(env, app.Len(), src, &pool[i])
				}
				s.describe(env, appIndex, grid, &pool[i])
			}
			picked := &pool[acq.pick(pool)]
			obs := sample{cfgs: slices.Clone(picked.cfgs), opts: slices.Clone(picked.opts)}
			s.observe(env, appIndex, grid, &obs, src)
			record(obs)
			// A numerically degenerate duplicate is left out of the GP but
			// still counts as the round's pick.
			_ = gp.Add(obs.feats, obs.opts, obs.latency)
		}
	}

	// Deployment selection: the cheapest observed configuration whose GP
	// posterior says it meets the SLO with margin (μ + σ/2 ≤ L), the
	// lowest-indexed among equal costs; fall back to the lowest-latency
	// observation. σ ≥ 0, so a sample whose mean alone exceeds L cannot
	// meet the SLO and skips the variance solve.
	for _, i := range byCost {
		if meanAbove(gp, &samples[i], sloMS) {
			continue
		}
		if mu, sigma := gp.Predict(samples[i].feats); !(mu+0.5*sigma > sloMS) {
			return samples[i].cfgs, gp.Work
		}
	}
	fastest := &samples[0]
	for i := range samples {
		if samples[i].latency < fastest.latency {
			fastest = &samples[i]
		}
	}
	return fastest.cfgs, gp.Work
}

// lengthScale is the GP kernel's length scale over the normalized
// features.
const lengthScale = 0.5

// meanAbove reports whether the GP's posterior mean at sm exceeds limit,
// exactly as gp.Mean(sm.feats) > limit does. The table bound settles the
// test when μ̃ is more than δ away from limit; only otherwise does it cost
// an exact kernel row.
func meanAbove(gp *bo.IncrementalGP, sm *sample, limit float64) bool {
	if mu, delta := gp.MeanBound(sm.opts); math.Abs(mu-limit) > delta {
		return mu > limit
	}
	return gp.Mean(sm.feats) > limit
}

// explorationWeight is the acquisition's reward per ms of posterior
// standard deviation, as a share of the SLO penalty per ms.
const explorationWeight = 0.3

// acquisitionScore is the score the pool pick minimizes for a candidate of
// the given cost whose latency the GP predicts as N(mu, sigma²): its cost,
// plus the penalty on its expected SLO violation, minus a reward for the
// model's uncertainty about it.
func acquisitionScore(cost, mu, sigma, penaltyPerMS, sloMS float64) float64 {
	return cost +
		penaltyPerMS*bo.ExpectedViolation(mu, sigma, sloMS) -
		explorationWeight*penaltyPerMS*sigma
}

// The score floor. Fix μ and L and write h(σ) = EV(μ, σ, L) − 0.3·σ for
// the σ-dependent part of acquisitionScore (0.3 = explorationWeight).
// dEV/dσ = φ(z) with z = (μ − L)/σ, so h′(σ) = φ(z) − 0.3. |z| falls as σ
// grows, so h falls while |z| > c and rises after, where φ(c) = 0.3:
// c = √(−2·ln(0.3·√(2π))) ≈ 0.755029. At σ = |μ − L|/c the σ terms cancel,
// which leaves the minimum over every σ ≥ 0:
//
//	(μ − L)·Φ(c)  ≈  0.774884·(μ − L)  when μ ≥ L,
//	(μ − L)·Φ(−c) ≈ −0.225116·(L − μ)  when μ < L.
//
// So cost + P·(μ − L)·w bounds the score from below for every σ, with the
// two weights below rounded to the side that keeps it a lower bound.
const (
	floorWeightAbove = 0.7748 // ≤ Φ(c), for μ > L
	floorWeightBelow = 0.2252 // ≥ Φ(−c), for μ ≤ L
)

// scoreFloor bounds acquisitionScore from below over every σ ≥ 0; it
// needs only the posterior mean. penaltyPerMS must be non-negative.
func scoreFloor(cost, mu, penaltyPerMS, sloMS float64) float64 {
	w := floorWeightBelow
	if mu > sloMS {
		w = floorWeightAbove
	}
	return cost + penaltyPerMS*(mu-sloMS)*w
}

// acquisition picks the next configuration to profile from a candidate
// pool: the candidate with the smallest acquisitionScore, the
// lowest-indexed among equal scores. It solves the O(n²) posterior variance
// only for candidates whose scoreFloor can still beat the best score found
// so far, and ranks them by a floor taken at μ̃ − δ, the low end of the GP's
// table bound on the mean: scoreFloor is non-decreasing in μ, so that floor
// is below the exact one. Its scratch is reused across one training's
// picks.
type acquisition struct {
	gp           *bo.IncrementalGP
	penaltyPerMS float64
	sloMS        float64

	floors []float64 // scoreFloor by pool index
	order  []int     // distinct candidates in (floor, index) order
	// group holds the pool indices whose scores one PredictBatch call
	// computes: four, the right-hand sides the GP's forward solve carries.
	group       [4]int
	feats       [4][]float64
	mus, sigmas [4]float64
}

// pick returns the index of the pool candidate with the smallest
// acquisitionScore, the lowest-indexed among equal scores, or −1 when no
// score is below +Inf. NaN scores are never picked.
func (a *acquisition) pick(pool []sample) int {
	a.floors = slices.Grow(a.floors[:0], len(pool))[:len(pool)]
	a.order = a.order[:0]
	// spread bounds |cost| + P·|μ − L| over the pool, for the margin:
	// |μ − L| ≤ |μ̃ − L| + δ.
	var spread float64
	for i := range pool {
		// A repeated candidate has the same features, cost and score as
		// its first occurrence, which wins the tie.
		if repeats(pool, i) {
			continue
		}
		cost := float64(pool[i].cost)
		mu, delta := a.gp.MeanBound(pool[i].opts)
		a.floors[i] = scoreFloor(cost, mu-delta, a.penaltyPerMS, a.sloMS)
		a.order = append(a.order, i)
		spread = max(spread, math.Abs(cost)+a.penaltyPerMS*(math.Abs(mu-a.sloMS)+delta))
	}
	// cmp.Compare orders a NaN floor first, so it is never pruned.
	slices.SortFunc(a.order, func(i, j int) int {
		return cmp.Or(cmp.Compare(a.floors[i], a.floors[j]), cmp.Compare(i, j))
	})

	// The margin covers rounding in the floor and in the score, whose
	// terms are at most P·(|μ − L| + σ₀) in size: EV ≤ |μ − L| + σ, and σ
	// never exceeds the prior σ₀. It is pool-wide, so once one floor in
	// (floor, index) order exceeds the best score by more than it, every
	// later floor does too. A NaN or infinite spread prunes nothing.
	sigma0 := math.Sqrt(a.gp.SignalVar + a.gp.NoiseVar)
	slack := spread + a.penaltyPerMS*sigma0
	best, bestScore := -1, math.Inf(1)
	for k := 0; k < len(a.order); {
		// Gather the next (up to) four candidates; the first whose floor
		// cannot beat the best score ends the walk.
		n := 0
		for ; n < len(a.group) && k < len(a.order); k++ {
			i := a.order[k]
			if a.floors[i] > bestScore+1e-9*(slack+math.Abs(bestScore)) {
				k = len(a.order)
				break
			}
			a.group[n], a.feats[n] = i, pool[i].feats
			n++
		}
		a.gp.PredictBatch(a.feats[:n], a.mus[:], a.sigmas[:])
		for c, i := range a.group[:n] {
			score := acquisitionScore(float64(pool[i].cost), a.mus[c], a.sigmas[c], a.penaltyPerMS, a.sloMS)
			if score < bestScore || score == bestScore && i < best {
				best, bestScore = i, score
			}
		}
	}
	return best
}

// repeats reports whether pool[i]'s configuration repeats an earlier
// candidate's.
func repeats(pool []sample, i int) bool {
	for j := range pool[:i] {
		if slices.Equal(pool[j].cfgs, pool[i].cfgs) {
			return true
		}
	}
	return false
}

// randomConfigs draws a uniform joint configuration from the space into
// sm's configurations and option indices.
func (s *Scheduler) randomConfigs(env *sched.Env, stages int, src *rng.Source, sm *sample) {
	space := env.Oracle.Space
	sm.cfgs = slices.Grow(sm.cfgs[:0], stages)[:stages]
	sm.opts = slices.Grow(sm.opts[:0], 3*stages)[:3*stages]
	for i := range sm.cfgs {
		b := src.IntN(len(space.Batches))
		c := src.IntN(len(space.CPUs))
		g := src.IntN(len(space.GPUs))
		sm.cfgs[i] = profile.Config{Batch: space.Batches[b], CPU: space.CPUs[c], GPU: space.GPUs[g]}
		sm.opts[3*i], sm.opts[3*i+1], sm.opts[3*i+2] = int32(b), int32(c), int32(g)
	}
}

// mutateConfigs stores in sm a base joint configuration with one or two
// dimensions perturbed by one option step.
func (s *Scheduler) mutateConfigs(env *sched.Env, base *sample, src *rng.Source, sm *sample) {
	space := env.Oracle.Space
	sm.cfgs = append(sm.cfgs[:0], base.cfgs...)
	sm.opts = append(sm.opts[:0], base.opts...)
	muts := 1 + src.IntN(2)
	for m := 0; m < muts; m++ {
		st := src.IntN(len(sm.cfgs))
		dim := src.IntN(3)
		cfg, opt := &sm.cfgs[st], &sm.opts[3*st+dim]
		switch dim {
		case 0:
			*opt = stepOption(space.Batches, cfg.Batch, src)
			cfg.Batch = space.Batches[*opt]
		case 1:
			*opt = stepOption(space.CPUs, cfg.CPU, src)
			cfg.CPU = space.CPUs[*opt]
		default:
			*opt = stepOption(space.GPUs, cfg.GPU, src)
			cfg.GPU = space.GPUs[*opt]
		}
	}
}

// stepOption returns the index one step up or down from v's first
// occurrence in the option list.
func stepOption[T comparable](opts []T, v T, src *rng.Source) int32 {
	idx := 0
	for i, o := range opts {
		if o == v {
			idx = i
			break
		}
	}
	if src.IntN(2) == 0 {
		idx--
	} else {
		idx++
	}
	if idx < 0 {
		idx = 0
	}
	if idx >= len(opts) {
		idx = len(opts) - 1
	}
	return int32(idx)
}

// describe stores sm's features and deterministic cost without observing.
func (s *Scheduler) describe(env *sched.Env, appIndex int, grid *bo.Grid, sm *sample) {
	app := env.Apps[appIndex]
	sm.feats = grid.Point(sm.feats, sm.opts)
	sm.cost = 0
	for i, cfg := range sm.cfgs {
		est := env.Oracle.Estimate(app.Stage(i).Function, cfg)
		sm.cost += est.JobCost
	}
}

// observe runs one offline profiling execution of sm's configuration:
// deterministic cost plus a noisy end-to-end latency drawn through the
// platform's noise model.
func (s *Scheduler) observe(env *sched.Env, appIndex int, grid *bo.Grid, sm *sample, src *rng.Source) {
	app := env.Apps[appIndex]
	s.describe(env, appIndex, grid, sm)
	var lat time.Duration
	for i, cfg := range sm.cfgs {
		est := env.Oracle.Estimate(app.Stage(i).Function, cfg)
		lat += env.Noise.Sample(est.Time, src)
		if i > 0 {
			lat += env.HopTransfer()
		}
	}
	sm.latency = float64(lat) / float64(time.Millisecond)
}

// minPathCost sums the cheapest per-stage job costs.
func (s *Scheduler) minPathCost(env *sched.Env, appIndex int) units.Money {
	app := env.Apps[appIndex]
	var c units.Money
	for i := 0; i < app.Len(); i++ {
		c += env.StageTable(appIndex, i).MinJobCost
	}
	return c
}

// optionFeatures normalizes each option of the space into [0,1]: batch on
// a log scale, vCPU and vGPU linearly. They are the coordinates of the
// GP's grid, so a joint configuration's features are its stages' option
// features, three per stage.
func optionFeatures(space profile.Space) [][]float64 {
	maxB := float64(space.MaxBatch())
	maxC := float64(space.CPUs[len(space.CPUs)-1])
	maxG := float64(space.GPUs[len(space.GPUs)-1])
	out := [][]float64{
		make([]float64, len(space.Batches)),
		make([]float64, len(space.CPUs)),
		make([]float64, len(space.GPUs)),
	}
	for i, b := range space.Batches {
		out[0][i] = math.Log2(float64(b)+1) / math.Log2(maxB+1)
	}
	for i, c := range space.CPUs {
		out[1][i] = float64(c) / maxC
	}
	for i, g := range space.GPUs {
		out[2][i] = float64(g) / maxG
	}
	return out
}

func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.latency
	}
	return out
}

func meanVar(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= float64(len(xs))
	return mean, variance
}

// Place implements sched.Scheduler. Per §4.2 the comparison gives Aquatope
// the same data-locality and pre-warming policy as ESG.
func (s *Scheduler) Place(env *sched.Env, q *queue.AFW, jobs []*queue.Job, cfg profile.Config, now time.Duration) *cluster.Invoker {
	return sched.LocalityPlace(env, q, jobs, cfg, now)
}

// MinConfig implements sched.Scheduler.
func (s *Scheduler) MinConfig(env *sched.Env, q *queue.AFW) profile.Config {
	return sched.DefaultMinConfig()
}
