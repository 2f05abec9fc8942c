package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/esg-sched/esg/internal/experiments"
	"github.com/esg-sched/esg/internal/sched"
)

// tinyFlags shrinks each workload to a test size; later flags override the
// workload's own.
var tinyFlags = map[string][]string{
	"paper-fig6":    {"-scale", "0.01"},
	"scale-replan4": {"-nodes", "32", "-requests", "600", "-load", "25"},
	"planet-burst":  {"-nodes", "64", "-requests", "2000"},
	"xfer-load20":   {"-nodes", "32", "-requests", "600", "-load", "5"},
	"chaos-load20":  {"-nodes", "32", "-requests", "600", "-load", "5", "-mtbf", "20s"},
}

func tinyArgs(t *testing.T, name string) []string {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	tiny, ok := tinyFlags[name]
	if !ok {
		t.Fatalf("no tiny flags for workload %s", name)
	}
	w.Flags = append(append([]string(nil), w.Flags...), tiny...)
	return esgbenchArgs(w, 42, variant{})
}

func TestWrapperForwardsOptionalInterfaces(t *testing.T) {
	for _, name := range experiments.KnownSchedulers() {
		s, err := experiments.NewScheduler(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		w := wrapScheduler(s, &cellProbe{}, time.Now())
		_, innerPC := s.(sched.PlanCaching)
		_, wrapPC := w.(sched.PlanCaching)
		_, innerCP := s.(sched.ConcurrentPlanner)
		_, wrapCP := w.(sched.ConcurrentPlanner)
		if innerPC != wrapPC || innerCP != wrapCP {
			t.Errorf("%s: PlanCaching %v→%v, ConcurrentPlanner %v→%v", name, innerPC, wrapPC, innerCP, wrapCP)
		}
		if w.Name() != s.Name() {
			t.Errorf("%s: wrapper is named %q", name, w.Name())
		}
	}
}

func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range []string{"scale-replan4", "planet-burst"} {
		t.Run(name, func(t *testing.T) {
			args := tinyArgs(t, name)
			plain, err := runWorkload(args, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runWorkload(args, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.Failures)+len(traced.Failures) > 0 {
				t.Fatalf("failures: %q %q", plain.Failures, traced.Failures)
			}
			if plain.Digest != traced.Digest {
				t.Errorf("digest %s untraced, %s traced", plain.Digest, traced.Digest)
			}
			if !reflect.DeepEqual(plain.Counters, traced.Counters) {
				t.Errorf("counters differ:\nuntraced %v\ntraced   %v", plain.Counters, traced.Counters)
			}
			if traced.Timings["sched.plan.calls"] == 0 || traced.Timings["sched.place.calls"] == 0 {
				t.Errorf("traced run timed no Plan or Place calls: %v", traced.Timings)
			}
		})
	}
}

var (
	esgbenchOnce sync.Once
	esgbenchBin  string
	esgbenchErr  error
)

// buildEsgbench builds the real cmd/esgbench once per test binary.
func buildEsgbench(t *testing.T) string {
	t.Helper()
	esgbenchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "esgperf-test")
		if err != nil {
			esgbenchErr = err
			return
		}
		esgbenchBin = filepath.Join(dir, "esgbench")
		out, err := exec.Command("go", "build", "-o", esgbenchBin, "github.com/esg-sched/esg/cmd/esgbench").CombinedOutput()
		if err != nil {
			esgbenchErr = err
			t.Logf("%s", out)
		}
	})
	if esgbenchErr != nil {
		t.Fatalf("building esgbench: %v", esgbenchErr)
	}
	return esgbenchBin
}

// TestTableMatchesEsgbench checks that the harness, which resolves
// instrumented cells before the scenario renders from the runner's cache,
// produces the bytes the real esgbench command prints.
func TestTableMatchesEsgbench(t *testing.T) {
	bin := buildEsgbench(t)
	t.Cleanup(func() { os.RemoveAll(filepath.Dir(bin)) })
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			if w.Name == "paper-fig6" && testing.Short() {
				t.Skip("Aquatope's offline training takes seconds at any scale")
			}
			t.Parallel()
			args := tinyArgs(t, w.Name)
			rep, err := runWorkload(args, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Failures) > 0 {
				t.Fatalf("failures: %q", rep.Failures)
			}
			out, err := exec.Command(bin, append([]string{"-quiet"}, args...)...).Output()
			if err != nil {
				t.Fatalf("esgbench %s: %v", strings.Join(args, " "), err)
			}
			sum := sha256.Sum256(out)
			if want := hex.EncodeToString(sum[:]); rep.Digest != want {
				t.Errorf("harness digest %s, esgbench %s", rep.Digest, want)
			}
		})
	}
}

// TestMetricSetsMatchBenchmarkJSON checks that the metrics a run emits,
// the catalog and the repository's BENCHMARK.json name the same things.
func TestMetricSetsMatchBenchmarkJSON(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(def.Name) || !unit.MatchString(def.Unit) || (def.Better != "lower" && def.Better != "higher") {
			t.Errorf("bad metric %+v", def)
		}
	}

	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.Name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, ours)
	}
	if !reflect.DeepEqual(bench.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the catalog:\n%v\n%v", bench.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bench.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the catalog:\n%v\n%v", bench.PerLayer, perLayer)
	}

	rep, err := runWorkload(tinyArgs(t, "scale-replan4"), true)
	if err != nil {
		t.Fatal(err)
	}
	s := sample{WallS: 1, Rep: rep}
	if got, want := keys(e2eValues(s)), defNames(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("emitted end-to-end %v, catalog %v", got, want)
	}
	if got, want := keys(layerValues(s, 1)), defNames(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("emitted per-layer %v, catalog %v", got, want)
	}
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		// statistics.quantiles(values, n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.observe(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*1000*1e3
		if math.Abs(got-want)/want > 0.13 {
			t.Errorf("quantile(%g) = %g ns, want ≈%g", q, got, want)
		}
	}
	if h.max.Load() != int64(time.Millisecond) || h.n.Load() != 1000 {
		t.Errorf("max %d n %d", h.max.Load(), h.n.Load())
	}
}

func mkStat(name, better string, bound float64, values ...float64) stat {
	return newStat(metricDef{Name: name, Unit: "s", Better: better, Bound: bound}, values)
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b stat
		want string
	}{
		{"faster in every pair", mkStat("wall_s", "lower", 0.1, 10, 10.1, 9.9, 10, 10.2, 10, 10.1, 9.9, 10, 10.2),
			mkStat("wall_s", "lower", 0.1, 8, 8.1, 7.9, 8, 8.2, 8, 8.1, 7.9, 8, 8.2), improved},
		{"too few pairs to claim a gain", mkStat("wall_s", "lower", 0.1, 10, 10.1, 9.9, 10, 10.2),
			mkStat("wall_s", "lower", 0.1, 8, 8.1, 7.9, 8, 8.2), withinBound},
		{"slower beyond the bound", mkStat("wall_s", "lower", 0.1, 10, 10.1, 9.9, 10, 10.2),
			mkStat("wall_s", "lower", 0.1, 12, 12.1, 11.9, 12, 12.2), worseThanBound},
		{"noise within the bound", mkStat("wall_s", "lower", 0.1, 10, 10.1, 9.9, 10, 10.2),
			mkStat("wall_s", "lower", 0.1, 10.1, 9.9, 10.2, 10, 10.1), withinBound},
		{"spread wider than the bound", mkStat("wall_s", "lower", 0.1, 10, 13, 7, 10, 14),
			mkStat("wall_s", "lower", 0.1, 11, 7, 14, 10, 13), unresolved},
		{"higher is better", mkStat("req_per_s", "higher", 0.1, 100, 100, 100),
			mkStat("req_per_s", "higher", 0.1, 80, 80, 80), worseThanBound},
		{"deterministic and equal", mkStat("cost", "lower", 0, 5, 5, 5),
			mkStat("cost", "lower", 0, 5, 5, 5), withinBound},
	} {
		if got, _, _ := judge(c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	rec := func(wall ...float64) *record {
		return &record{Schema: recordSchema, Workloads: []workloadRecord{{
			Name:     "w",
			Digests:  map[string]string{"1": "d"},
			EndToEnd: []stat{mkStat("wall_s", "lower", 0.1, wall...)},
			PerLayer: []stat{mkStat("sched.plan.busy_s", "lower", 0, wall...)},
		}}}
	}
	var out strings.Builder
	if compare(&out, rec(10, 10, 10), rec(10.1, 9.9, 10)) {
		t.Errorf("noise flagged as a regression:\n%s", out.String())
	}
	out.Reset()
	if !compare(&out, rec(10, 10, 10), rec(13, 13, 13)) {
		t.Errorf("a 30%% slowdown was not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), worseThanBound) {
		t.Errorf("verdict missing:\n%s", out.String())
	}
}
