// Command esgperf is the repository's benchmark. It runs fixed workloads,
// each equivalent to one esgbench command, every repetition in a fresh
// child process, and reports end-to-end metrics (wall, set-up, throughput,
// CPU, memory, allocations and the simulation's SLO outcomes) measured
// from outside the program, plus a per-layer split from a traced run that
// times calls into Plan, Place and the request source.
//
// Run it from the repository root through bench/run.sh, which builds it
// with a build cache inside the checkout:
//
//	bash bench/run.sh [-seed 42] [-variant default|serial|shards2] [-record FILE]
//	bash bench/run.sh -workload NAME -seconds S [-trace 0|1] [-seed N]
//	bash bench/run.sh compare A.json B.json
//
// The first form runs a set: ten untraced repetitions of every workload
// at one seed, interleaved round-robin so host drift spreads over all of
// them, then one traced repetition each. It prints every metric and writes
// a record. The second form repeats one workload for about S seconds,
// cycling through inputs derived from the seed, and prints the medians as
// one JSON object on its last line (end-to-end metrics, or per-layer ones
// with -trace 1). The third compares two records. Any failed check makes
// esgperf exit 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// setReps is the number of untraced repetitions of each workload in a
// set: compare claims a gain only over at least this many paired runs.
const setReps = minPairs

// childTimeout bounds one repetition; the slowest takes well under 20 s.
const childTimeout = 150 * time.Second

// maxTimedSeconds bounds a timed run: no repetition starts that is
// expected to end later.
const maxTimedSeconds = 150

// outDir holds traces and default records, relative to the repository
// root.
const outDir = "bench/out"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// childMain runs one repetition in this process and writes its report as
// JSON to stdout: esgperf child plain|traced <esgbench args>.
func childMain(args []string) int {
	if len(args) < 1 || (args[0] != "plain" && args[0] != "traced") {
		fmt.Fprintln(os.Stderr, "usage: esgperf child plain|traced <esgbench args>")
		return 2
	}
	rep, err := runWorkload(args[1:], args[0] == "traced")
	if err != nil {
		fmt.Fprintf(os.Stderr, "esgperf child: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "esgperf child: %v\n", err)
		return 1
	}
	return 0
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: esgperf compare A.json B.json")
		return 2
	}
	a, err := readRecord(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "esgperf compare: %v\n", err)
		return 1
	}
	b, err := readRecord(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "esgperf compare: %v\n", err)
		return 1
	}
	if compare(os.Stdout, a, b) {
		return 1
	}
	return 0
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("esgperf", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "workload seed")
	name := fs.String("workload", "", "run only this workload for -seconds and print one JSON result line")
	seconds := fs.Float64("seconds", 0, "with -workload: how long to keep repeating it")
	trace := fs.Int("trace", 0, "with -workload: 1 alternates traced and untraced runs and reports the per-layer metrics")
	variantName := fs.String("variant", "default", "scaling variant: default, serial (GOMAXPROCS=1, -parallel 1) or shards2 (-cellshards 2)")
	recordPath := fs.String("record", "", "with a set: where to write the record (default "+outDir+"/<variant>-seed<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// An interrupted run kills the child it is waiting for and exits
	// without a result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	v, err := findVariant(*variantName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "esgperf: %v\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "esgperf: %v\n", err)
		return 1
	}
	if *name == "" {
		if *seconds != 0 || *trace != 0 {
			fmt.Fprintln(os.Stderr, "esgperf: -seconds and -trace need -workload")
			return 2
		}
		path := *recordPath
		if path == "" {
			path = filepath.Join(outDir, fmt.Sprintf("%s-seed%d.json", v.Name, *seed))
		}
		return runSet(ctx, exe, v, *seed, path)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "esgperf: %v\n", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "esgperf: -workload needs -seconds > 0 and -trace 0 or 1")
		return 2
	}
	return runTimed(ctx, exe, w, v, *seed, *seconds, *trace == 1)
}

// runSet runs every workload of v setReps times untraced, interleaved
// round-robin, then once traced, all at one seed, and writes the record.
func runSet(ctx context.Context, exe string, v variant, seed uint64, path string) int {
	ws := v.selected()
	samples := make([][]sample, len(ws))
	for rep := 0; rep < setReps+1; rep++ {
		traced := rep == setReps
		for i, w := range ws {
			fmt.Fprintf(os.Stderr, "esgperf: %s run %d/%d (traced: %v)\n", w.Name, rep+1, setReps+1, traced)
			samples[i] = append(samples[i], runChild(ctx, exe, w, v, seed, traced))
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "esgperf: interrupted")
				return 1
			}
		}
	}
	rec := record{Schema: recordSchema, Seed: seed, Variant: v.Name, Host: currentHost(v)}
	failed := false
	for i, w := range ws {
		wr := summarize(w, v, seed, samples[i])
		rec.Workloads = append(rec.Workloads, wr)
		printStats(os.Stdout, wr)
		failed = failed || len(wr.Failures) > 0
		if err := writeTrace(filepath.Join(outDir, "trace-"+w.Name+".json"), lastTraced(samples[i])); err != nil {
			fmt.Fprintf(os.Stderr, "esgperf: %v\n", err)
			failed = true
		}
	}
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintf(os.Stderr, "esgperf: %v\n", err)
		return 1
	}
	fmt.Printf("record written to %s\n", path)
	if failed {
		return 1
	}
	return 0
}

// runTimed repeats one workload for about seconds and prints the medians.
// Repetitions cycle through subSeeds inputs derived from seed, so a run's
// medians pool several inputs and depend less on any one of them; a run
// takes at least one repetition of each. With trace, each input runs
// traced and then untraced. A new repetition starts only while the run is
// expected to end less than half a repetition past the deadline.
func runTimed(ctx context.Context, exe string, w workload, v variant, seed uint64, seconds float64, trace bool) int {
	step, minReps := 1, subSeeds
	if trace {
		step, minReps = 2, 2
	}
	start := time.Now()
	var samples []sample
	var durations []float64
	for i := 0; ; i++ {
		begin := time.Now()
		s := runChild(ctx, exe, w, v, subSeed(seed, i/step%subSeeds), trace && i%2 == 0)
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "esgperf: interrupted")
			return 1
		}
		samples = append(samples, s)
		durations = append(durations, time.Since(begin).Seconds())
		elapsed, typical := time.Since(start).Seconds(), median(durations)
		if s.Err != "" || elapsed+typical > maxTimedSeconds {
			break
		}
		if i+1 >= minReps && elapsed+typical/2 > seconds {
			break
		}
	}
	rec := summarize(w, v, seed, samples)
	printStats(os.Stdout, rec)
	failed := 0
	for _, s := range samples {
		if s.Err != "" || len(s.Rep.Failures) > 0 {
			failed++
		}
	}
	if trace {
		if err := writeTrace(filepath.Join(outDir, "trace-"+w.Name+".json"), lastTraced(samples)); err != nil {
			fmt.Fprintf(os.Stderr, "esgperf: %v\n", err)
			rec.Failures = append(rec.Failures, err.Error())
		}
	}
	group := rec.EndToEnd
	if trace {
		group = rec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(group))
	for _, s := range group {
		metrics[s.Name] = value{s.Median, s.Unit}
	}
	correct := len(rec.Failures) == 0
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, len(samples), failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "esgperf: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func lastTraced(samples []sample) []span {
	for i := len(samples) - 1; i >= 0; i-- {
		if samples[i].Traced && samples[i].Rep != nil {
			return samples[i].Rep.Spans
		}
	}
	return nil
}

// runChild runs one repetition of w at seed in a fresh process with the
// variant's GOMAXPROCS and measures its wall time, CPU time and peak RSS
// from outside.
func runChild(ctx context.Context, exe string, w workload, v variant, seed uint64, traced bool) sample {
	s := sample{Seed: seed, Traced: traced, CalibMS: calibrate()}
	mode := "plain"
	if traced {
		mode = "traced"
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, append([]string{"child", mode}, esgbenchArgs(w, seed, v)...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(v.procs()))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	begin := time.Now()
	err := cmd.Run()
	s.WallS = time.Since(begin).Seconds()
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			s.CPUS = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
			s.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		s.Err = fmt.Sprintf("child %s: %v", mode, err)
		return s
	}
	s.Rep = new(report)
	if err := json.Unmarshal(out.Bytes(), s.Rep); err != nil {
		s.Err = fmt.Sprintf("child %s: reading its report: %v", mode, err)
		s.Rep = nil
	}
	return s
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate times a fixed pure-Go loop, in ms. It makes host drift
// visible next to the workload numbers and is never a claim target.
func calibrate() float64 {
	begin := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return float64(time.Since(begin)) / 1e6
}
