// Package esg is a reproduction of "ESG: Pipeline-Conscious Efficient
// Scheduling of DNN Workflows on Serverless Platforms with Shareable GPUs"
// (Hui, Xu, Guo, Shen — HPDC 2024).
//
// The package is the public façade over the reproduction's internals:
//
//   - the ESG scheduling algorithm — ESG_1Q configuration search (A* with
//     dual-blade pruning), dominator-based SLO distribution, and the
//     locality-aware ESG_Dispatch policy — plus the four baseline
//     schedulers the paper compares against (INFless, FaST-GShare, Orion,
//     Aquatope);
//   - the serverless-platform emulator: a 16-node invoker cluster with
//     MIG-style shareable vGPUs, AFW job queues, container cold/warm
//     starts, EWMA pre-warming, and data-locality transfer costs;
//   - the workload and profile substrates: the six Table-3 DNN functions,
//     the four evaluation applications, and the Azure-derived arrival
//     traces.
//
// # Quick start
//
//	app := esg.ImageClassificationApp()
//	reg := esg.Table3Registry()
//	oracle := esg.NewOracle(reg, esg.DefaultSpace(), esg.DefaultPricing())
//	slo := esg.SLOFor(app, esg.Moderate, reg)
//
//	dist, _ := esg.DistributeSLO(app, oracle, 3)
//	stages, quota := dist.RemainingSequence(app.Entry())
//	_ = stages
//
//	res := esg.Search(esg.SearchInput{
//		Tables: esg.StageTables(oracle, app),
//		GSLO:   time.Duration(float64(slo) * quota),
//		K:      5,
//	})
//	fmt.Println(res.Paths[0].Configs())
//
// To run a full emulation, generate a trace and call Run:
//
//	trace := esg.GenerateTrace(esg.Light, 2000, 4, 42)
//	result, _ := esg.Run(esg.RunConfig{SLOLevel: esg.Strict}, esg.NewESG(), trace)
//	fmt.Printf("SLO hit rate: %.1f%%\n", 100*result.HitRate)
//
// The cmd/esgsim, cmd/esgbench and cmd/esgprofile tools and the examples/
// directory exercise this API end to end; EXPERIMENTS.md records how the
// regenerated tables and figures compare with the paper's.
package esg

import (
	"time"

	"github.com/esg-sched/esg/internal/baselines/aquatope"
	"github.com/esg-sched/esg/internal/baselines/fastgshare"
	"github.com/esg-sched/esg/internal/baselines/infless"
	"github.com/esg-sched/esg/internal/baselines/orion"
	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/controller"
	"github.com/esg-sched/esg/internal/core"
	"github.com/esg-sched/esg/internal/dominator"
	"github.com/esg-sched/esg/internal/fault"
	"github.com/esg-sched/esg/internal/metrics"
	"github.com/esg-sched/esg/internal/pricing"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/sched"
	"github.com/esg-sched/esg/internal/units"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

// Core model types.
type (
	// Config is one resource assignment: (batch size, #vCPUs, #vGPUs).
	Config = profile.Config
	// Space enumerates the configuration options per dimension.
	Space = profile.Space
	// Function is a serverless function's performance profile.
	Function = profile.Function
	// Registry indexes function profiles by name.
	Registry = profile.Registry
	// Oracle precomputes per-function (config → time, cost) tables.
	Oracle = profile.Oracle
	// Estimate is one (config, time, cost) profile row.
	Estimate = profile.Estimate
	// Noise is the execution-time variation model.
	Noise = profile.Noise

	// App is a DNN workflow DAG of serverless function stages.
	App = workflow.App
	// Builder assembles workflow DAGs.
	Builder = workflow.Builder
	// SLOLevel is the latency-objective tightness (Strict/Moderate/Relaxed).
	SLOLevel = workflow.SLOLevel

	// Level is the workload intensity (Heavy/Normal/Light).
	Level = workload.Level
	// Trace is a generated request sequence.
	Trace = workload.Trace
	// Request is one application invocation in a trace.
	Request = workload.Request

	// Scheduler is a scheduling algorithm pluggable into the emulator.
	Scheduler = sched.Scheduler
	// Plan is a scheduler's ranked candidate configurations for a queue.
	Plan = sched.Plan

	// SearchInput parameterizes one ESG_1Q search.
	SearchInput = core.SearchInput
	// SearchResult is the outcome of one ESG_1Q search.
	SearchResult = core.SearchResult
	// Path is one full configuration path over a stage sequence.
	Path = core.Path
	// PlanCache memoizes ESG_1Q searches (per stage group, entries answering
	// disjoint intervals of quantized targets).
	PlanCache = core.PlanCache
	// PlanCacheStats are a plan cache's hit/miss/eviction counters.
	PlanCacheStats = sched.PlanCacheStats

	// Distribution is a dominator-based SLO distribution of an app.
	Distribution = dominator.Distribution
	// Group is one function group of a distribution.
	Group = dominator.Group
	// DominatorTree is the dominator tree of a workflow DAG.
	DominatorTree = dominator.Tree

	// ClusterConfig shapes the emulated invoker fleet.
	ClusterConfig = cluster.Config
	// PricingModel prices vCPU/vGPU reservations over time.
	PricingModel = pricing.Model
	// Money is an exact monetary amount (micro-cents).
	Money = units.Money
	// Resources is a (vCPU, vGPU) vector.
	Resources = units.Resources

	// RunConfig shapes one emulation run.
	RunConfig = controller.Config
	// Result is the metrics of one emulation run.
	Result = metrics.Result
	// AppSummary is one application's aggregate metrics.
	AppSummary = metrics.AppSummary
	// InstanceRecord is one completed workflow instance's outcome.
	InstanceRecord = metrics.InstanceRecord

	// FaultSpec declares a run's failure model (invoker MTBF/MTTR,
	// transient/cold-start failure rates, straggler slowdowns); set it via
	// RunConfig.Faults. The zero value injects nothing.
	FaultSpec = fault.Spec
	// FaultStats aggregates a run's fault-injection outcomes
	// (Result.Faults).
	FaultStats = metrics.FaultStats

	// ESGOption configures the ESG scheduler.
	ESGOption = core.Option
)

// SLO levels (§4.1): hits within 0.8·L, 1.0·L and 1.2·L respectively.
const (
	Strict   = workflow.Strict
	Moderate = workflow.Moderate
	Relaxed  = workflow.Relaxed
)

// Workload levels (§4.1): arrival intervals of [10,16.8], [20,33.6] and
// [40,67.2] milliseconds respectively.
const (
	Heavy  = workload.Heavy
	Normal = workload.Normal
	Light  = workload.Light
)

// NewESG returns the paper's scheduler with its defaults (group size 3,
// K = 5) or the supplied options.
func NewESG(opts ...ESGOption) Scheduler { return core.New(opts...) }

// NewPlanCache returns a memoized ESG_1Q search layer bounded to capacity
// entries with the given target-latency bucket width (non-positive values
// select the defaults). Attach it with WithPlanCache, or let the emulator
// attach one of the default size per run via RunConfig.PlanCache.
func NewPlanCache(capacity int, granularity time.Duration) *PlanCache {
	return core.NewPlanCache(capacity, granularity)
}

// WithPlanCache attaches a plan cache to an ESG scheduler.
func WithPlanCache(c *PlanCache) ESGOption { return core.WithPlanCache(c) }

// ESG scheduler options.
var (
	// WithGroupSize sets the dominator-based SLO distribution's maximal
	// function-group size.
	WithGroupSize = core.WithGroupSize
	// WithK sets the configuration priority-queue depth.
	WithK = core.WithK
	// WithMargin sets the planning safety factor in (0, 1].
	WithMargin = core.WithMargin
	// WithoutGPUSharing forces whole-GPU allocations (Fig. 12 ablation).
	WithoutGPUSharing = core.WithoutGPUSharing
	// WithoutBatching forces batch size 1 (Fig. 12 ablation).
	WithoutBatching = core.WithoutBatching
)

// NewINFless returns the INFless baseline (§4.2).
func NewINFless() Scheduler { return infless.New() }

// NewFaSTGShare returns the FaST-GShare baseline (§4.2).
func NewFaSTGShare() Scheduler { return fastgshare.New() }

// NewOrion returns the Orion baseline (§4.2).
func NewOrion() Scheduler { return orion.New() }

// NewAquatope returns the Aquatope baseline (§4.2); seed drives its offline
// Bayesian-optimization training.
func NewAquatope(seed uint64) Scheduler { return aquatope.New(seed) }

// Table3Functions returns the six DNN function profiles of the paper's
// Table 3.
func Table3Functions() []*Function { return profile.Table3() }

// Table3Registry returns a registry of the Table 3 functions.
func Table3Registry() *Registry { return profile.Table3Registry() }

// NewRegistry builds a registry from custom function profiles.
func NewRegistry(fns ...*Function) (*Registry, error) { return profile.NewRegistry(fns...) }

// DefaultSpace returns the 256-configuration space of §5.3.
func DefaultSpace() Space { return profile.DefaultSpace() }

// SmallSpace returns a compact 27-configuration space for quick runs.
func SmallSpace() Space { return profile.SmallSpace() }

// MinConfig is the minimum configuration (batch 1, 1 vCPU, 1 vGPU).
var MinConfig = profile.MinConfig

// DefaultPricing returns the paper's §4.1 prices ($0.034/h per vCPU,
// $0.67/h per vGPU).
func DefaultPricing() PricingModel { return pricing.Default() }

// DefaultClusterConfig returns the paper's testbed shape: 16 invokers with
// 16 vCPUs and 7 vGPUs each (Table 2).
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }

// DefaultNoise returns the emulator's Gaussian performance-variation model.
func DefaultNoise() Noise { return profile.DefaultNoise() }

// NoNoise disables performance variation (deterministic runs).
func NoNoise() Noise { return profile.NoNoise() }

// NewOracle precomputes profile tables over a space and pricing model.
func NewOracle(reg *Registry, space Space, pm PricingModel) *Oracle {
	return profile.NewOracle(reg, space, pm)
}

// The four evaluation applications of §4.1.
var (
	ImageClassificationApp         = workflow.ImageClassificationApp
	DepthRecognitionWorkflow       = workflow.DepthRecognitionWorkflow
	BackgroundEliminationApp       = workflow.BackgroundEliminationApp
	ExpandedImageClassificationApp = workflow.ExpandedImageClassificationApp
)

// EvaluationApps returns the four applications in reporting order.
func EvaluationApps() []*App { return workflow.EvaluationApps() }

// ScaleApps returns the eight-application set of the production-scale
// stress scenarios: the evaluation apps plus four further Table-3 chains.
func ScaleApps() []*App { return workflow.ScaleApps() }

// Chain builds a linear pipeline over the named functions.
func Chain(name string, functions ...string) *App { return workflow.Chain(name, functions...) }

// NewAppBuilder starts a custom workflow DAG definition.
func NewAppBuilder(name string) *Builder { return workflow.NewBuilder(name) }

// SLOFor returns an application's end-to-end latency objective at a level.
func SLOFor(app *App, level SLOLevel, reg *Registry) time.Duration {
	return workflow.SLOFor(app, level, reg)
}

// Search runs ESG_1Q: A*-search with dual-blade pruning over a stage
// sequence's configuration space (§3.3, Appendix B).
func Search(in SearchInput) SearchResult { return core.Search(in) }

// Searcher runs ESG_1Q searches on reusable scratch — the allocation-free
// steady path for callers issuing many searches from one goroutine.
type Searcher = core.Searcher

// NewSearcher returns an empty Searcher; buffers grow on first use.
func NewSearcher() *Searcher { return core.NewSearcher() }

// BruteForceSearch exhaustively enumerates the configuration space; it is
// the §5.3 comparison point and a correctness oracle for Search.
func BruteForceSearch(in SearchInput) SearchResult { return core.BruteForceSearch(in) }

// StageTables returns the profile tables of an app's stages in stage order,
// ready for Search over the whole workflow.
func StageTables(oracle *Oracle, app *App) []*profile.FunctionTable {
	out := make([]*profile.FunctionTable, app.Len())
	for i := 0; i < app.Len(); i++ {
		out[i] = oracle.MustTable(app.Stage(i).Function)
	}
	return out
}

// BuildDominatorTree computes the dominator tree of a workflow DAG (§3.3).
func BuildDominatorTree(app *App) *DominatorTree { return dominator.BuildTree(app) }

// DistributeSLO runs the dominator-based SLO distribution (§3.3): ANL
// labelling, hierarchical reduction, grouping with the given maximal group
// size, and quota assignment.
func DistributeSLO(app *App, oracle *Oracle, groupSize int) (*Distribution, error) {
	anl := dominator.ANL(app, oracle)
	return dominator.Distribute(app, anl, groupSize)
}

// GenerateTrace builds a deterministic request trace: n requests over apps
// applications at the given workload level.
func GenerateTrace(level Level, n, apps int, seed uint64) *Trace {
	return workload.Generate(level, n, apps, rng.New(seed))
}

// GenerateCompressedTrace builds a trace with the level's arrival pattern
// sped up by the given factor (the scale scenarios' 100× load). It rejects
// impossible shapes (negative n, apps < 1, speedup <= 0) with an error.
func GenerateCompressedTrace(level Level, speedup float64, n, apps int, seed uint64) (*Trace, error) {
	return workload.GenerateCompressed(level, speedup, n, apps, rng.New(seed))
}

// Run executes one emulation of scheduler s over trace tr and returns its
// metrics. Zero fields of cfg take the paper's defaults (16-node cluster,
// Table 3 functions, the four evaluation apps, 256-config space).
func Run(cfg RunConfig, s Scheduler, tr *Trace) (*Result, error) {
	return controller.Run(cfg, s, workload.NewTraceSource(tr))
}
