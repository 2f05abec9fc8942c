package main

import (
	"fmt"
	"runtime"
	"strconv"
)

// workload is one fixed benchmark input: the esgbench command it is
// equivalent to (flags, then the paper target for the paper family) and
// the reason it is in the set. Every run adds -seed, -overhead none and
// -wall=false, so the rendered table is a deterministic function of the
// seed.
type workload struct {
	Name   string
	Flags  []string
	Target string
	Why    string
}

// workloads is the benchmark's fixed set. Sizes are chosen so one
// repetition takes 2–7 s on a 2-vCPU host, which lets a 20 s run take
// several repetitions and report their median.
var workloads = []workload{
	{
		Name:   "paper-fig6",
		Flags:  []string{"-scale", "0.1", "-parallel", "2"},
		Target: "fig6",
		Why:    "the paper's 5-scheduler x 3-setting grid: the only one with Orion and Aquatope, no plan cache and cells run concurrently; placement work should not move it",
	},
	{
		Name:  "scale-replan4",
		Flags: []string{"-scenario", "scale", "-sched", "ESG", "-requests", "30000", "-replan", "4", "-plancache"},
		Why:   "overloaded 256-node hot path used by every record since BENCH_3: all four plan-cache tiers busy and most Place calls find no fit",
	},
	{
		Name:  "planet-burst",
		Flags: []string{"-scenario", "planet", "-arrival", "burst", "-requests", "100000", "-plancache"},
		Why:   "healthy 2048-node streaming tier where every Place call fits; the only workload whose memory is set by streaming (peak RSS, live peak)",
	},
	{
		Name:  "xfer-load20",
		Flags: []string{"-scenario", "scale", "-xfer", "-sched", "ESG", "-load", "20", "-requests", "30000", "-plancache"},
		Why:   "the only workload with the PCIe/NIC transfer fabric on; fabric work should move it and nothing else",
	},
	{
		Name:  "chaos-load20",
		Flags: []string{"-scenario", "chaos", "-sched", "ESG", "-load", "20", "-requests", "30000", "-mtbf", "120s", "-mttr", "1s", "-taskfail", "0.01", "-straggler", "0.01", "-plancache"},
		Why:   "the only workload with fault injection: flight tracking, retries and crash recovery, the third dispatch shape",
	},
}

// goldenDigests pins the sha256 of each workload's rendered table at seed
// 42. Each equals the digest of the stdout of
// `esgbench -seed 42 -overhead none -wall=false -quiet <flags> [target]`,
// and every variant must reproduce it: -parallel, -cellshards and
// GOMAXPROCS never change artifacts.
var goldenDigests = map[string]string{
	"paper-fig6":    "a6e73e3600843e56e797a083144ca11c2f9e9efbbf98b06ea294b4049bead2d3",
	"scale-replan4": "f07698ad7e73e69355f88294f33b095bc28c70a488b0448daa96eea49a7d4bb5",
	"planet-burst":  "3d4f97e5554c91327c94050216b6eea387f0457bdb80ee79e2032715163b29dd",
	"xfer-load20":   "fa2cbb7c4d00a3e3126595e71141653138bddb3febfaa5fdbb6e255c92c35db6",
	"chaos-load20":  "6a2e3d4ca3ab6d6a4cacbf12b8b86da64e0df459db2240eb8a4ae2ff116dfdb4",
}

// goldenSeed is the seed goldenDigests were taken at.
const goldenSeed = 42

// subSeeds is the number of inputs a timed run cycles through. The
// simulated outcomes, and with them the work a run does, vary from one
// seed to the next; pooling three inputs narrows that variation in a
// run's medians.
const subSeeds = 3

// subSeed returns the k-th input seed of a run at seed; the first is seed
// itself.
func subSeed(seed uint64, k int) uint64 {
	return seed + uint64(k)*1_000_003
}

// esgbenchArgs returns the esgbench command line of one run of w.
func esgbenchArgs(w workload, seed uint64, v variant) []string {
	args := []string{"-seed", strconv.FormatUint(seed, 10), "-overhead", "none", "-wall=false"}
	args = append(args, w.Flags...)
	args = append(args, v.Flags...)
	if w.Target != "" {
		args = append(args, w.Target)
	}
	return args
}

// variant is a scaling configuration of the set. Variants record how the
// workloads scale with cores and shards; they never feed BENCHMARK.json.
type variant struct {
	Name string
	// Procs is the children's GOMAXPROCS, capped at the host's CPU count.
	Procs int
	// Flags are appended to every workload's esgbench flags.
	Flags []string
	// Only restricts the variant to these workloads (nil: all of them).
	Only []string
}

var variants = []variant{
	{Name: "default", Procs: 2},
	{Name: "serial", Procs: 1, Flags: []string{"-parallel", "1"}},
	{Name: "shards2", Procs: 2, Flags: []string{"-cellshards", "2"}, Only: []string{"scale-replan4", "planet-burst"}},
}

func findVariant(name string) (variant, error) {
	for _, v := range variants {
		if v.Name == name {
			return v, nil
		}
	}
	return variant{}, fmt.Errorf("unknown variant %q (want default, serial or shards2)", name)
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// selected returns the workloads a variant runs, in set order.
func (v variant) selected() []workload {
	if v.Only == nil {
		return workloads
	}
	var out []workload
	for _, w := range workloads {
		for _, name := range v.Only {
			if w.Name == name {
				out = append(out, w)
			}
		}
	}
	return out
}

// procs returns the GOMAXPROCS a variant's children run with.
func (v variant) procs() int {
	return min(v.Procs, runtime.NumCPU())
}
