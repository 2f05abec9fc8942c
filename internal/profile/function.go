package profile

import (
	"fmt"
	"time"

	"github.com/esg-sched/esg/internal/units"
)

// Function is the performance profile of one DNN serverless function. The
// analytic model splits the measured minimum-configuration time into a CPU
// part (pre/post-processing, data movement) and a GPU part (the inference
// kernels), then scales each with the configuration:
//
//	t(b,c,g) = tCPU(b,c) + tGPU(b,g)
//	tCPU     = BaseExec·CPUFraction·(1+(b-1)·CPUBatchSlope)·amdahl(c)
//	amdahl   = (1-ParallelFrac) + ParallelFrac/c
//	tGPU     = BaseExec·(1-CPUFraction)·(1+(shard-1)·GPUBatchSlope)
//	shard    = ceil(b / g)
//
// The GPU part follows the paper's task model (§3.2): a task given g vGPUs
// runs data-parallel inference, launching one kernel per vGPU with each
// processing a shard of the batch; a single job therefore cannot be
// accelerated by extra vGPUs, but batches are. Batching is sub-linear
// (GPUBatchSlope < 1), which is what makes it profitable for cost.
type Function struct {
	// Name identifies the function (unique within a registry).
	Name string
	// Model names the DNN (documentation only).
	Model string
	// BaseExec is the measured execution time at MinConfig (Table 3).
	BaseExec time.Duration
	// ColdStart is the container cold-start time (Table 3).
	ColdStart time.Duration
	// InputMB is the input payload size in megabytes (Table 3), used by
	// the data-transfer model.
	InputMB float64
	// OutputMB is the output payload size in megabytes — what a successor
	// stage must move before it can start. Zero (the Table 3 default)
	// keeps inter-stage payloads out of the topology-based transfer
	// model; Registry.WithOutputFactor derives non-zero sizes from the
	// measured inputs.
	OutputMB float64
	// CPUFraction is the fraction of BaseExec spent on CPU work.
	CPUFraction float64
	// ParallelFrac is the Amdahl parallel fraction of the CPU part.
	ParallelFrac float64
	// CPUBatchSlope is the marginal CPU work of one extra batched job.
	CPUBatchSlope float64
	// GPUBatchSlope is the marginal GPU time of one extra job in a shard.
	GPUBatchSlope float64
}

// Validate checks the profile's parameters are in range.
func (f *Function) Validate() error {
	switch {
	case f.Name == "":
		return fmt.Errorf("profile: function with empty name")
	case f.BaseExec <= 0:
		return fmt.Errorf("profile: %s: BaseExec must be positive", f.Name)
	case f.ColdStart < 0:
		return fmt.Errorf("profile: %s: ColdStart must be non-negative", f.Name)
	case f.CPUFraction < 0 || f.CPUFraction > 1:
		return fmt.Errorf("profile: %s: CPUFraction out of [0,1]", f.Name)
	case f.ParallelFrac < 0 || f.ParallelFrac >= 1:
		return fmt.Errorf("profile: %s: ParallelFrac out of [0,1)", f.Name)
	case f.CPUBatchSlope < 0 || f.GPUBatchSlope < 0:
		return fmt.Errorf("profile: %s: batch slopes must be non-negative", f.Name)
	case f.InputMB < 0:
		return fmt.Errorf("profile: %s: InputMB must be non-negative", f.Name)
	case f.OutputMB < 0:
		return fmt.Errorf("profile: %s: OutputMB must be non-negative", f.Name)
	}
	return nil
}

// Exec returns the modelled execution time of the function under cfg.
// It is deterministic; the emulator layers noise on top (see Noise).
func (f *Function) Exec(cfg Config) time.Duration {
	if !cfg.Valid() {
		// Invariant, not input: configs reach Exec only from validated
		// search spaces, so an invalid one means a scheduler bug upstream.
		panic(fmt.Sprintf("profile: invalid config %v for %s", cfg, f.Name))
	}
	base := float64(f.BaseExec)
	cpuPart := base * f.CPUFraction
	gpuPart := base * (1 - f.CPUFraction)

	amdahl := (1 - f.ParallelFrac) + f.ParallelFrac/float64(cfg.CPU)
	tCPU := cpuPart * (1 + float64(cfg.Batch-1)*f.CPUBatchSlope) * amdahl

	shard := ceilDiv(cfg.Batch, int(cfg.GPU))
	tGPU := gpuPart * (1 + float64(shard-1)*f.GPUBatchSlope)

	return time.Duration(tCPU + tGPU)
}

// EffectiveGPUs returns how many of the config's vGPUs are actually used by
// a batch of the given size (extra vGPUs beyond the batch size idle).
func EffectiveGPUs(cfg Config) units.VGPU {
	if int(cfg.GPU) > cfg.Batch {
		return units.VGPU(cfg.Batch)
	}
	return cfg.GPU
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		// Internal helper with constant positive divisors at every call
		// site; a bad divisor is a programming error.
		panic("profile: ceilDiv by non-positive divisor")
	}
	return (a + b - 1) / b
}
