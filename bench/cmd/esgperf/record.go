package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"text/tabwriter"
)

// record is one set of runs: every workload of a variant at one seed.
type record struct {
	Schema    string           `json:"schema"`
	Seed      uint64           `json:"seed"`
	Variant   string           `json:"variant"`
	Host      hostInfo         `json:"host"`
	Workloads []workloadRecord `json:"workloads"`
}

const recordSchema = "esgperf/1"

type hostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Go         string `json:"go"`
	CPUs       int    `json:"cpus"`
	ChildProcs int    `json:"child_gomaxprocs"`
}

func currentHost(v variant) hostInfo {
	return hostInfo{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Go: runtime.Version(),
		CPUs: runtime.NumCPU(), ChildProcs: v.procs()}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != recordSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, recordSchema)
	}
	return &rec, nil
}

// printStats writes one workload's metrics, one line each.
func printStats(out io.Writer, rec workloadRecord) {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "%s\tmetric\tunit\tmedian\tp25\tp75\tn\t\n", rec.Name)
	for _, group := range [][]stat{rec.EndToEnd, rec.PerLayer} {
		for _, s := range group {
			fmt.Fprintf(tw, "\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t\n", s.Name, s.Unit, s.Median, s.P25, s.P75, s.N)
		}
	}
	tw.Flush()
	seeds := make([]string, 0, len(rec.Digests))
	for seed := range rec.Digests {
		seeds = append(seeds, seed)
	}
	sort.Strings(seeds)
	for _, seed := range seeds {
		fmt.Fprintf(out, "  seed %s: table digest %s\n", seed, rec.Digests[seed])
	}
	fmt.Fprintf(out, "  %d untraced + %d traced runs\n", rec.Runs, rec.Traced)
	for _, f := range rec.Failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
}

// Verdicts of compare, following the measurement rules for a change:
// improved needs at least minPairs paired runs, ≥ 9/10 of them won and a
// median gain beyond the baseline's quartile spread; a metric whose spread
// is wider than its bound is unresolved unless every run of B beats every
// run of A.
const (
	minPairs = 10

	improved       = "improved"
	worseThanBound = "worse-than-bound"
	withinBound    = "within-bound"
	unresolved     = "unresolved"
)

// judge compares metric b against baseline a.
func judge(a, b stat) (verdict string, won float64, pairs int) {
	lowerBetter := a.Better == "lower"
	better := func(x, y float64) bool { // y better than x
		if lowerBetter {
			return y < x
		}
		return y > x
	}
	pairs = min(len(a.Values), len(b.Values))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(a.Values[i], b.Values[i]) {
			wins++
		}
	}
	if pairs > 0 {
		won = float64(wins) / float64(pairs)
	}
	gain := b.Median - a.Median // in the better direction
	if lowerBetter {
		gain = -gain
	}
	if pairs >= minPairs && won >= 0.9 && gain > a.P75-a.P25 {
		return improved, won, pairs
	}
	rel := func(x, base float64) float64 {
		if base == 0 {
			if x == 0 {
				return 0
			}
			return math.Inf(1)
		}
		return x / math.Abs(base)
	}
	spread := math.Max(rel(a.P75-a.P25, a.Median), rel(b.P75-b.P25, b.Median))
	allBetter := len(a.Values) > 0 && len(b.Values) > 0
	for _, x := range a.Values {
		for _, y := range b.Values {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case spread > a.Bound && !allBetter:
		return unresolved, won, pairs
	case rel(-gain, a.Median) > a.Bound:
		return worseThanBound, won, pairs
	default:
		return withinBound, won, pairs
	}
}

// compare writes the per-workload comparison of two records and reports
// whether any end-to-end metric got worse than its bound.
func compare(out io.Writer, a, b *record) (regressed bool) {
	fmt.Fprintf(out, "A: variant %s, seed %d, %s on %d CPUs\n", a.Variant, a.Seed, a.Host.Go, a.Host.CPUs)
	fmt.Fprintf(out, "B: variant %s, seed %d, %s on %d CPUs\n", b.Variant, b.Seed, b.Host.Go, b.Host.CPUs)
	byName := make(map[string]workloadRecord)
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(out, "\n%s: missing from B\n", wa.Name)
			continue
		}
		fmt.Fprintf(out, "\n%s\n", wa.Name)
		for seed, da := range wa.Digests {
			if db, ok := wb.Digests[seed]; ok && da != db {
				fmt.Fprintf(out, "  seed %s: table digest changed from %.12s to %.12s\n", seed, da, db)
			}
		}
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  metric\tunit\tA median [p25, p75]\tB median [p25, p75]\tchange\tB won\tbound\tverdict")
		row := func(sa, sb stat, withVerdict bool) {
			change := "="
			if sa.Median != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(sb.Median-sa.Median)/math.Abs(sa.Median))
			} else if sb.Median != 0 {
				change = "new"
			}
			verdict, won, pairs := judge(sa, sb)
			bound := "-"
			if !withVerdict {
				verdict = "-"
			} else {
				bound = fmt.Sprintf("%g%%", 100*sa.Bound)
				regressed = regressed || verdict == worseThanBound
			}
			fmt.Fprintf(tw, "  %s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%s\t%.0f%% of %d\t%s\t%s\n",
				sa.Name, sa.Unit, sa.Median, sa.P25, sa.P75, sb.Median, sb.P25, sb.P75, change, 100*won, pairs, bound, verdict)
		}
		for _, group := range []struct {
			a, b        []stat
			withVerdict bool
		}{{wa.EndToEnd, wb.EndToEnd, true}, {wa.PerLayer, wb.PerLayer, false}} {
			statsB := make(map[string]stat)
			for _, s := range group.b {
				statsB[s.Name] = s
			}
			for _, sa := range group.a {
				if sb, ok := statsB[sa.Name]; ok {
					row(sa, sb, group.withVerdict)
				}
			}
		}
		tw.Flush()
	}
	return regressed
}

// writeTrace writes a child's spans as Chrome trace-event JSON (open it
// in Perfetto or chrome://tracing). Process-level spans sit on track 0;
// cells are packed onto the fewest tracks on which they do not overlap,
// one track per concurrently running cell.
func writeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	track := map[int]int{}
	var laneEnd []float64
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range sorted {
		parent, isChild := byID[s.Parent]
		switch {
		case s.Parent == resolveSpan: // a cell
			lane := 0
			for lane < len(laneEnd) && laneEnd[lane] > s.Start {
				lane++
			}
			if lane == len(laneEnd) {
				laneEnd = append(laneEnd, 0)
			}
			laneEnd[lane] = s.End
			track[s.ID] = lane + 1
		case isChild && parent.Parent == resolveSpan: // a cell's setup or run
			track[s.ID] = track[parent.ID]
		default:
			track[s.ID] = 0
		}
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, event{Name: s.Name, Ph: "X", Ts: s.Start * 1e3, Dur: (s.End - s.Start) * 1e3,
			Pid: 1, Tid: track[s.ID], Args: args})
	}
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
