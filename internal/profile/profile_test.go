package profile

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/esg-sched/esg/internal/pricing"
	"github.com/esg-sched/esg/internal/rng"
	"github.com/esg-sched/esg/internal/units"
)

func TestSpaceSizeAndConfigs(t *testing.T) {
	s := DefaultSpace()
	if s.Size() != 256 {
		t.Errorf("default space size = %d, want 256 (§5.3)", s.Size())
	}
	cfgs := s.Configs()
	if len(cfgs) != 256 {
		t.Errorf("Configs() returned %d", len(cfgs))
	}
	seen := make(map[Config]bool)
	for _, c := range cfgs {
		if !c.Valid() {
			t.Errorf("invalid config in space: %v", c)
		}
		if seen[c] {
			t.Errorf("duplicate config %v", c)
		}
		seen[c] = true
		if !s.Contains(c) {
			t.Errorf("space does not contain its own config %v", c)
		}
	}
	if s.Contains(Config{Batch: 5, CPU: 1, GPU: 1}) {
		t.Errorf("space contains batch 5, which is not an option")
	}
}

func TestClampBatch(t *testing.T) {
	s := DefaultSpace()
	cases := []struct{ n, want int }{
		{1, 1}, {2, 2}, {3, 3}, {5, 4}, {7, 6}, {8, 8}, {100, 16}, {0, 1},
	}
	for _, c := range cases {
		if got := s.ClampBatch(c.n); got != c.want {
			t.Errorf("ClampBatch(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	want := map[string]struct {
		exec, cold time.Duration
		inMB       float64
	}{
		SuperResolution:   {86 * time.Millisecond, 3503 * time.Millisecond, 2.7},
		Segmentation:      {293 * time.Millisecond, 16510 * time.Millisecond, 2.5},
		Deblur:            {319 * time.Millisecond, 22343 * time.Millisecond, 1.1},
		Classification:    {147 * time.Millisecond, 18299 * time.Millisecond, 0.147},
		BackgroundRemoval: {1047 * time.Millisecond, 3729 * time.Millisecond, 2.5},
		DepthRecognition:  {828 * time.Millisecond, 16479 * time.Millisecond, 0.648},
	}
	fns := Table3()
	if len(fns) != 6 {
		t.Fatalf("Table3 has %d functions, want 6", len(fns))
	}
	for _, f := range fns {
		w, ok := want[f.Name]
		if !ok {
			t.Errorf("unexpected function %q", f.Name)
			continue
		}
		if f.BaseExec != w.exec {
			t.Errorf("%s BaseExec = %v, want %v", f.Name, f.BaseExec, w.exec)
		}
		if f.ColdStart != w.cold {
			t.Errorf("%s ColdStart = %v, want %v", f.Name, f.ColdStart, w.cold)
		}
		if f.InputMB != w.inMB {
			t.Errorf("%s InputMB = %v, want %v", f.Name, f.InputMB, w.inMB)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("%s invalid: %v", f.Name, err)
		}
	}
}

func TestExecAtMinConfigEqualsBase(t *testing.T) {
	for _, f := range Table3() {
		if got := f.Exec(MinConfig); got != f.BaseExec {
			t.Errorf("%s Exec(min) = %v, want %v", f.Name, got, f.BaseExec)
		}
	}
}

func TestExecMonotonicity(t *testing.T) {
	f := Table3()[0]
	// More CPUs never slow a fixed batch/GPU config down.
	for b := 1; b <= 16; b *= 2 {
		prev := time.Duration(1 << 62)
		for c := units.VCPU(1); c <= 8; c++ {
			cur := f.Exec(Config{Batch: b, CPU: c, GPU: 1})
			if cur > prev {
				t.Errorf("Exec(b=%d) not monotone in CPU at c=%d: %v > %v", b, c, cur, prev)
			}
			prev = cur
		}
	}
	// More GPUs never slow a fixed batch/CPU config down.
	for b := 1; b <= 16; b *= 2 {
		prev := time.Duration(1 << 62)
		for g := units.VGPU(1); g <= 7; g++ {
			cur := f.Exec(Config{Batch: b, CPU: 2, GPU: g})
			if cur > prev {
				t.Errorf("Exec(b=%d) not monotone in GPU at g=%d: %v > %v", b, g, cur, prev)
			}
			prev = cur
		}
	}
	// Larger batches never run faster as a task.
	prev := time.Duration(0)
	for b := 1; b <= 16; b++ {
		cur := f.Exec(Config{Batch: b, CPU: 2, GPU: 2})
		if cur < prev {
			t.Errorf("Exec not monotone in batch at b=%d: %v < %v", b, cur, prev)
		}
		prev = cur
	}
}

func TestBatchingAmortizes(t *testing.T) {
	// The per-job time of a batch must beat running jobs one at a time
	// (GPUBatchSlope < 1) — the reason batching exists (§1).
	for _, f := range Table3() {
		single := f.Exec(Config{Batch: 1, CPU: 4, GPU: 1})
		batch8 := f.Exec(Config{Batch: 8, CPU: 4, GPU: 1})
		if batch8 >= 8*single {
			t.Errorf("%s: batch of 8 (%v) not cheaper than 8 singles (%v)", f.Name, batch8, 8*single)
		}
	}
}

func TestSingleJobNotAcceleratedByExtraGPUs(t *testing.T) {
	// §3.2: data-parallel kernels split the batch; a single job cannot use
	// more than one vGPU.
	for _, f := range Table3() {
		t1 := f.Exec(Config{Batch: 1, CPU: 2, GPU: 1})
		t7 := f.Exec(Config{Batch: 1, CPU: 2, GPU: 7})
		if t1 != t7 {
			t.Errorf("%s: batch-1 time changed with vGPUs: %v vs %v", f.Name, t1, t7)
		}
	}
}

func TestEffectiveGPUs(t *testing.T) {
	if got := EffectiveGPUs(Config{Batch: 2, CPU: 1, GPU: 7}); got != 2 {
		t.Errorf("EffectiveGPUs(b=2,g=7) = %d, want 2", got)
	}
	if got := EffectiveGPUs(Config{Batch: 16, CPU: 1, GPU: 4}); got != 4 {
		t.Errorf("EffectiveGPUs(b=16,g=4) = %d, want 4", got)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	bad := []*Function{
		{Name: "", BaseExec: time.Second},
		{Name: "x", BaseExec: 0},
		{Name: "x", BaseExec: time.Second, CPUFraction: 1.5},
		{Name: "x", BaseExec: time.Second, ParallelFrac: 1},
		{Name: "x", BaseExec: time.Second, ColdStart: -1},
		{Name: "x", BaseExec: time.Second, InputMB: -2},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("case %d: bad profile validated", i)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	r := Table3Registry()
	if r.Len() != 6 {
		t.Fatalf("registry has %d entries", r.Len())
	}
	if _, ok := r.Lookup("nonexistent"); ok {
		t.Errorf("lookup of unknown function succeeded")
	}
	if f := r.MustLookup(Deblur); f.Name != Deblur {
		t.Errorf("MustLookup returned %q", f.Name)
	}
	names := r.Names()
	if len(names) != 6 || names[0] != SuperResolution {
		t.Errorf("Names() = %v", names)
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	f := Table3()[0]
	if _, err := NewRegistry(f, f); err == nil {
		t.Errorf("duplicate registration accepted")
	}
}

func TestOracleTablesSorted(t *testing.T) {
	o := NewOracle(Table3Registry(), DefaultSpace(), pricing.Default())
	for _, name := range Table3Registry().Names() {
		ft := o.MustTable(name)
		if len(ft.ByLatency) != 256 {
			t.Fatalf("%s table has %d rows", name, len(ft.ByLatency))
		}
		for i := 1; i < len(ft.ByLatency); i++ {
			if ft.ByLatency[i].Time < ft.ByLatency[i-1].Time {
				t.Errorf("%s ByLatency not sorted at %d", name, i)
			}
		}
		for i := 1; i < len(ft.ByJobCost); i++ {
			if ft.ByJobCost[i].JobCost < ft.ByJobCost[i-1].JobCost {
				t.Errorf("%s ByJobCost not sorted at %d", name, i)
			}
		}
		if ft.MinTime != ft.ByLatency[0].Time {
			t.Errorf("%s MinTime mismatch", name)
		}
		if ft.MinJobCost != ft.ByJobCost[0].JobCost {
			t.Errorf("%s MinJobCost mismatch", name)
		}
	}
}

func TestOracleCostMatchesFig3Arithmetic(t *testing.T) {
	// Fig. 3(a): cost = (c·pCPU + g·pGPU) × time / batch. With the
	// illustrative prices (0.04¢/s per vCPU, 0.8¢/s per vGPU), a task of
	// 0.9 s at (batch 2, 4 vCPU, 1 vGPU) costs (0.16+0.8)·0.9/2 = 0.432¢
	// per job.
	pm := pricing.Illustrative()
	res := units.Resources{CPU: 4, GPU: 1}
	job := pm.JobCost(res, 900*time.Millisecond, 2)
	want := 0.432
	if got := job.Cents(); got < want-0.001 || got > want+0.001 {
		t.Errorf("per-job cost = %v¢, want ≈%v¢", got, want)
	}
}

func TestLatencyAscendingBatchFilter(t *testing.T) {
	o := NewOracle(Table3Registry(), DefaultSpace(), pricing.Default())
	ft := o.MustTable(Segmentation)
	for _, e := range ft.LatencyAscending(3) {
		if e.Config.Batch > 3 {
			t.Errorf("batch filter leaked config %v", e.Config)
		}
	}
	if n := len(ft.LatencyAscending(0)); n != 256 {
		t.Errorf("unfiltered list has %d entries", n)
	}
}

func TestEstimateConsistency(t *testing.T) {
	o := NewOracle(Table3Registry(), DefaultSpace(), pricing.Default())
	f := func(bi, ci, gi uint8) bool {
		s := o.Space
		cfg := Config{
			Batch: s.Batches[int(bi)%len(s.Batches)],
			CPU:   s.CPUs[int(ci)%len(s.CPUs)],
			GPU:   s.GPUs[int(gi)%len(s.GPUs)],
		}
		est := o.Estimate(Deblur, cfg)
		fn := o.MustTable(Deblur).Fn
		return est.Time == fn.Exec(cfg) &&
			est.JobCost == est.TaskCost/units.Money(cfg.Batch)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNoiseSample(t *testing.T) {
	src := rng.New(21)
	n := Noise{Sigma: 0.1, Floor: 0.5}
	base := time.Second
	for i := 0; i < 10000; i++ {
		d := n.Sample(base, src)
		if d < base/2 {
			t.Fatalf("noise sample below floor: %v", d)
		}
		if d > time.Duration(1.31*float64(base)) {
			t.Fatalf("noise sample above +3σ: %v", d)
		}
	}
	if NoNoise().Sample(base, src) != base {
		t.Errorf("NoNoise changed the duration")
	}
}

func TestP95Factor(t *testing.T) {
	n := Noise{Sigma: 0.1}
	if got := n.P95Factor(); got < 1.164 || got > 1.165 {
		t.Errorf("P95Factor = %v, want ≈1.1645", got)
	}
	if got := NoNoise().P95Factor(); got != 1 {
		t.Errorf("noiseless P95Factor = %v", got)
	}
}
