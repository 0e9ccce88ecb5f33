package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric tables")

// benchJSON is BENCHMARK.json's layout.
type benchJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricJSON   `json:"end_to_end"`
	PerLayer   []metricJSON   `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is the measured phase the repository benchmark runs with.
const runSeconds = 30

func wantBenchJSON() benchJSON {
	b := benchJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		b.EndToEnd = append(b.EndToEnd, metricJSON{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range tracedMetrics() {
		b.PerLayer = append(b.PerLayer, metricJSON{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return b
}

// TestBenchmarkJSON holds ../BENCHMARK.json in step with the metric tables
// and within the benchmark definition's limits.
func TestBenchmarkJSON(t *testing.T) {
	want := wantBenchJSON()
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("%s is out of date with the metric tables; regenerate with go test -run TestBenchmarkJSON -update", path)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for _, w := range want.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range append(append([]metricJSON(nil), want.EndToEnd...), want.PerLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
	}
	if n := len(want.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128", n)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, seconds: 1.6, trace: trace,
		root: t.TempDir(), setups: 2, warmup: 300 * time.Millisecond, drain: 10 * time.Second,
		replay: replayScale{kernelOps: 500, instances: 2, appends: 8, journals: 2, compileRep: 1},
	}
}

// socketFDs counts the process's open sockets, listeners included.
func socketFDs(t *testing.T) int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd")
	}
	n := 0
	for _, e := range entries {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, "socket:") {
			n++
		}
	}
	return n
}

// settle waits for the goroutine and socket counts to fall back to the
// baseline, failing if they do not within a few seconds.
func settle(t *testing.T, goroutines, sockets int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g, s := runtime.NumGoroutine(), socketFDs(t)
		if g <= goroutines && s <= sockets {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run leaked: %d goroutines (was %d), %d sockets (was %d)", g, goroutines, s, sockets)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestWorkloadsTiny runs every workload, untraced and traced, at tiny size:
// each must pass its own checks, emit every named metric with its unit,
// report zero fleet activity off the fleet, and leave nothing behind.
func TestWorkloadsTiny(t *testing.T) {
	fleetMetrics := []string{"lease.grants_per_job", "runnerclient.compute_p50_ms", "runnerclient.acquire_p50_ms",
		"self.runner.compute_ms_per_job", "lease.useful_acquire_ratio"}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(w.name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				goroutines, sockets := runtime.NumGoroutine(), socketFDs(t)
				cfg := tinyConfig(t, w.name, trace)
				out, rr, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", out.Correct, out.Attempted, out.Failed, rr.Failures)
				}
				want := endToEnd
				if trace {
					want = tracedMetrics()
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d", len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: emitted %v with unit %q, want unit %q", m.Name, ok, got.Unit, m.Unit)
					}
				}
				if !trace {
					for _, m := range []string{"setup_s", "best_cost_mean", "cpu_ms_per_job", "max_rss_mb"} {
						if out.Metrics[m].Value <= 0 {
							t.Errorf("%s = %v, want > 0", m, out.Metrics[m].Value)
						}
					}
				} else {
					for _, m := range fleetMetrics {
						v := out.Metrics[m].Value
						if w.fleet && v <= 0 {
							t.Errorf("%s = %v on the fleet, want > 0", m, v)
						}
						if !w.fleet && v != 0 {
							t.Errorf("%s = %v off the fleet, want 0", m, v)
						}
					}
				}
				settle(t, goroutines, sockets)
				if entries, err := os.ReadDir(cfg.root); err != nil || len(entries) != 0 {
					t.Errorf("data root not cleaned up: %v %v", entries, err)
				}
			})
		}
	}
}

// TestCorruptedArtifactCounted damages one artifact in the measured phase;
// the checks must count exactly that job as failed.
func TestCorruptedArtifactCounted(t *testing.T) {
	cfg := tinyConfig(t, "small-jobs", false)
	cfg.corrupt = true
	out, rr, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want one failure: %v", out.Correct, out.Failed, rr.Failures)
	}
}

// TestHungJobCounted makes one job's event stream never close: once the
// drain after the phase cuts it off, that job must count as failed, and the
// run must still leave nothing behind.
func TestHungJobCounted(t *testing.T) {
	goroutines, sockets := runtime.NumGoroutine(), socketFDs(t)
	cfg := tinyConfig(t, "small-jobs", false)
	cfg.hang, cfg.drain = true, 2*time.Second
	out, rr, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want one failure: %v", out.Correct, out.Failed, rr.Failures)
	}
	settle(t, goroutines, sockets)
}

// TestFleetArtifactsMatchGrid checks that paper-grid and fleet-grid see the
// same spec stream, so their artifacts are comparable byte for byte.
func TestFleetArtifactsMatchGrid(t *testing.T) {
	grid, _ := workloadByName("paper-grid")
	fleet, _ := workloadByName("fleet-grid")
	a, err := newStream(grid, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newStream(fleet, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 20 {
		ra, rb := a.round(i), b.round(i)
		for k := range ra {
			if !bytes.Equal(a.body[ra[k]], b.body[rb[k]]) {
				t.Fatalf("round %d job %d differs", i, k)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	def := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		change []float64
		want   string
	}{
		{[]float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, "improved"},
		{[]float64{100, 100, 100, 101, 99, 100, 100, 101, 99, 100}, "within bound"},
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "regressed"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(def, base, c.change); got != c.want {
			t.Errorf("verdict = %q, want %q", got, c.want)
		}
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	if got, _, _ := verdict(def, noisy, base); !strings.HasPrefix(got, "unresolved") {
		t.Errorf("noisy parent: verdict = %q, want unresolved", got)
	}
}
