package controller

import (
	"strings"
	"testing"

	"github.com/esg-sched/esg/internal/cluster"
	"github.com/esg-sched/esg/internal/core"
	"github.com/esg-sched/esg/internal/profile"
	"github.com/esg-sched/esg/internal/workflow"
	"github.com/esg-sched/esg/internal/workload"
)

// xferConfig enables the data-movement model on a quick test config:
// constrained PCIe/NIC links plus profiled output sizes.
func xferConfig(pcie, nic float64) Config {
	cfg := quickConfig(workflow.Moderate)
	ccfg := cluster.DefaultConfig()
	ccfg.Topology = cluster.Topology{PCIeMBps: pcie, NICMBps: nic}
	cfg.Cluster = ccfg
	cfg.Registry = profile.Table3Registry().WithOutputFactor(1)
	return cfg
}

func TestTransferModelChargesAndCounts(t *testing.T) {
	res, err := Run(xferConfig(12000, 1250), core.New(), workload.NewTraceSource(lightTrace(120, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Errorf("%d instances never finished under the transfer model", res.Unfinished)
	}
	x := res.Xfer
	if !x.Any() {
		t.Fatalf("transfer-enabled run recorded no data movement: %+v", x)
	}
	if x.Hops <= 0 || x.TransferSeconds <= 0 {
		t.Errorf("hops=%d transfer=%gs, want both positive", x.Hops, x.TransferSeconds)
	}
	if x.CrossServer > x.Hops {
		t.Errorf("cross-server hops %d exceed total hops %d", x.CrossServer, x.Hops)
	}
	if lf := x.LocalFraction(); lf < 0 || lf > 1 {
		t.Errorf("local fraction %g outside [0,1]", lf)
	}
	if !strings.Contains(res.Summary(), " xfer=") {
		t.Errorf("summary missing the xfer section: %s", res.Summary())
	}
}

func TestTransferModelOffIsSilent(t *testing.T) {
	res, err := Run(quickConfig(workflow.Moderate), core.New(), workload.NewTraceSource(lightTrace(120, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Xfer.Any() {
		t.Errorf("flat-model run recorded fabric transfers: %+v", res.Xfer)
	}
	if strings.Contains(res.Summary(), " xfer=") {
		t.Errorf("flat-model summary carries an xfer section: %s", res.Summary())
	}
}

// TestTransferModelDeterministic pins the fabric's determinism: two runs at
// one seed must agree on every transfer aggregate, not just the headline
// metrics.
func TestTransferModelDeterministic(t *testing.T) {
	a, err := Run(xferConfig(12000, 1250), core.New(), workload.NewTraceSource(lightTrace(150, 11)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(xferConfig(12000, 1250), core.New(), workload.NewTraceSource(lightTrace(150, 11)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Xfer != b.Xfer {
		t.Errorf("same seed diverged on transfers: %+v vs %+v", a.Xfer, b.Xfer)
	}
	if a.HitRate != b.HitRate || a.Tasks != b.Tasks {
		t.Errorf("same seed diverged: %v/%d vs %v/%d", a.HitRate, a.Tasks, b.HitRate, b.Tasks)
	}
}
