// Command mcoptbench is the repository's end-to-end benchmark. It starts the
// optimization service in-process — service.Open with mcoptd's defaults and
// service.NewHandler on a free loopback port, plus, for the fleet workload,
// two runnerclient.Runner loops with mcoptrunner's defaults computing
// through service.ReplicaComputer — and drives it with two closed-loop
// clients over HTTP. It reads the program only through public surfaces: the
// HTTP API, /metrics, each job's /v1/jobs/{id}/trace, and the layers'
// exported functions.
//
// Usage (from the repository root; benchmark/run.sh builds and runs it):
//
//	mcoptbench --workload small-jobs|paper-grid|fleet-grid|all --seed N
//	           --seconds S --trace 0|1 [--record FILE]
//	mcoptbench compare [--bench BENCHMARK.json] BASE_DIR CHANGE_DIR
//
// Its self-test runs every workload at tiny size: cd benchmark && go test .
//
// An untraced run (--trace 0) reports the end-to-end metrics: set-up time,
// completed jobs per second, done latency percentiles, CPU per job, mean
// best cost and peak memory. A traced run (--trace 1) splits its measured
// phase into an untraced and a traced half; it reports the per-layer
// metrics from the traced half, self time per span name, and the tracing
// overhead (traced minus untraced half) on every end-to-end metric.
//
// Every job's artifact is checked outside the timed interval, and every
// failure counts against the attempts. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. A run
// record with the environment stamp, server counter deltas and all metrics
// is written beside it (by default under .bench_build/records/), and the
// compare mode judges two sets of such records.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcopt/internal/obs"

	_ "mcopt/problem/builtin"
)

const (
	clientCount       = 2  // closed-loop clients, one per core of the reference host
	calibrationRounds = 5  // host calibration rounds before and after the measured phase
	setupCount        = 32 // set-ups per run, in two blocks
)

var errNoJobs = errors.New("no job completed in the measured phase")

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // parent of the run's data directories
	record   string // run-record path; empty writes none
	setups   int
	warmup   time.Duration
	// drain is how long the clients may take to finish their jobs in flight
	// once the measured phase ends; calls still open after it are cut off,
	// and their jobs count as failed.
	drain  time.Duration
	replay replayScale
	// corrupt damages the first artifact fetched in the measured phase, and
	// hang makes the first event stream opened in it never close, to show
	// the checks count both (self-test only).
	corrupt, hang bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line the benchmark prints last.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is everything one run measured, written as JSON for the
// compare mode and for reading a run after the fact.
type runRecord struct {
	Workload  string       `json:"workload"`
	Seed      uint64       `json:"seed"`
	Seconds   float64      `json:"seconds"`
	Trace     bool         `json:"trace"`
	Started   time.Time    `json:"started"`
	Env       envStamp     `json:"env"`
	Correct   bool         `json:"correct"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	Failures  []string     `json:"failures,omitempty"`
	SetupS    [2][]float64 `json:"setup_s"` // the untraced set-ups of each block
	// HostCalibUS is the median time of the host calibration rounds taken
	// before and after the measured phase.
	HostCalibUS float64            `json:"host_calib_us"`
	Phases      []phaseRecord      `json:"phases"`
	Metrics     map[string]float64 `json:"metrics"`
	Server      map[string]float64 `json:"server_deltas"`
	Layers      []metricDef        `json:"layers,omitempty"`
}

// phaseRecord summarises one measured phase: the whole phase's job count,
// CPU use and host steal, the jobs and wall time of the calm slices the
// metrics are taken over, and every slice.
type phaseRecord struct {
	Name       string        `json:"name"`
	WallS      float64       `json:"wall_s"`
	Jobs       int           `json:"jobs"`
	CPUUtil    float64       `json:"cpu_util"`
	StealShare float64       `json:"host_steal_share"`
	KeptJobs   int           `json:"kept_jobs"`
	KeptWallS  float64       `json:"kept_wall_s"`
	Slices     []sliceRecord `json:"slices"`
}

type sliceRecord struct {
	WallS      float64 `json:"wall_s"`
	Jobs       int     `json:"jobs"`
	CPUMS      float64 `json:"cpu_ms"`
	DoneP50MS  float64 `json:"done_p50_ms"`
	StealShare float64 `json:"host_steal_share"`
	Kept       bool    `json:"kept"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("mcoptbench", flag.ExitOnError)
	workload := fs.String("workload", "", "small-jobs, paper-grid, fleet-grid, or all")
	seed := fs.Uint64("seed", 1, "workload seed: the spec stream is a pure function of it")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	record := fs.String("record", "", "run-record path (default .bench_build/records/<workload>-...json)")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	if *workload == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "mcoptbench: --workload, --seconds > 0 and --trace 0|1 are required")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	// A run never outlives its limit: a hang fails loudly instead.
	limit := time.Duration(len(names)) * (time.Duration(*seconds*float64(time.Second)) + 120*time.Second)
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "mcoptbench: run exceeded %v\n", limit)
		os.Exit(3)
	})
	for _, name := range names {
		cfg := config{
			workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1,
			root: filepath.Join(".bench_build", "data"), record: *record,
			setups: setupCount, warmup: 2 * time.Second, drain: 20 * time.Second, replay: fullReplay,
		}
		if cfg.record == "" || len(names) > 1 {
			cfg.record = filepath.Join(".bench_build", "records",
				fmt.Sprintf("%s-s%d-t%d-%d.json", name, *seed, *trace, time.Now().UnixNano()))
		}
		out, rec, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcoptbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		printSummary(rec)
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcoptbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// mark is a probe plus a /metrics scrape at one instant.
type mark struct {
	p             probe
	exp           *obs.Exposition
	retried       int64 // client submit retries so far
	runnerRetried int64
}

// run executes one benchmark run and returns its result line and record.
func run(cfg config) (*output, *runRecord, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(cfg.root, 0o755); err != nil {
		return nil, nil, err
	}
	root, err := os.MkdirTemp(cfg.root, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(root)
	rr := &runRecord{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Started: time.Now().UTC(), Env: readEnv(root), Metrics: map[string]float64{}}
	fail := func(msg string) {
		rr.Failed++
		if len(rr.Failures) < 20 {
			rr.Failures = append(rr.Failures, msg)
		}
	}

	// Set-up, repeated in two blocks of back-to-back set-ups: one before the
	// measured phase, whose last set-up is the deployment the run measures,
	// and one after it. setup_s is the median of the faster block: a slowdown
	// of the host's disk or CPU that covers one block does not move it, while
	// work moved into set-up slows both. In a traced run every other set-up
	// runs with the recorder on, for the set-up tracing overhead.
	rec := newRecorder()
	var retried atomic.Int64
	var tracedSetups [2][]float64
	setups := 0
	setUpIn := func(block int) (*harness, *specStream, error) {
		traced := cfg.trace && setups%2 == 1
		setups++
		rec.on.Store(traced)
		d, h, st, err := setUp(root, w, cfg.seed, rec, &retried)
		rec.on.Store(false)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if traced {
			tracedSetups[block] = append(tracedSetups[block], d.Seconds())
		} else {
			rr.SetupS[block] = append(rr.SetupS[block], d.Seconds())
		}
		return h, st, nil
	}
	perBlock := max(1, cfg.setups/2)
	var h *harness
	var st *specStream
	for i := range perBlock {
		hh, s, err := setUpIn(0)
		if err != nil {
			return nil, nil, err
		}
		if i < perBlock-1 {
			hh.close()
		} else {
			h, st = hh, s
		}
	}
	rec.reset()
	defer h.close()

	// Closed-loop clients run from here until stop, through warm-up and the
	// measured phase.
	var (
		next    atomic.Int64
		corrupt atomic.Bool
		mu      sync.Mutex
		jobs    []*jobObs
		wg      sync.WaitGroup
	)
	next.Store(1) // round 0 was the set-up's submit
	store := &artifactStore{}
	stop := make(chan struct{})
	var clients []*apiClient
	for range clientCount {
		c := newAPIClient(h.base, &retried)
		clients = append(clients, c)
		l := &loadLoop{c: c, st: st, next: &next, rec: rec, store: store, corrupt: &corrupt, stop: stop, mu: &mu, jobs: &jobs}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run()
		}()
	}
	stopClients := sync.OnceFunc(func() {
		close(stop)
		drained := make(chan struct{})
		go func() {
			wg.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(cfg.drain):
			for _, c := range clients {
				c.abort()
			}
			<-drained
		}
		for _, c := range clients {
			c.close()
		}
	})
	defer stopClients()

	ctl := newAPIClient(h.base, &retried)
	defer ctl.close()
	take := func() mark {
		m := mark{p: readProbe(), retried: retried.Load(), runnerRetried: h.runnerRetries()}
		exp, err := ctl.scrape()
		rr.Attempted++
		if err != nil {
			fail("metrics scrape: " + err.Error())
		}
		m.exp = exp
		return m
	}

	// phase sleeps through d in n equal slices, probing at each inner
	// boundary and taking a full mark (probe and scrape) at the end.
	phase := func(start mark, d time.Duration, n int) ([]probe, mark) {
		probes := []probe{start.p}
		for i := 1; i < n; i++ {
			time.Sleep(time.Until(start.p.at.Add(d * time.Duration(i) / time.Duration(n))))
			probes = append(probes, readProbe())
		}
		time.Sleep(time.Until(start.p.at.Add(d)))
		end := take()
		return append(probes, end.p), end
	}

	calib := hostCalibration(calibrationRounds)
	time.Sleep(cfg.warmup)
	measured := time.Duration(cfg.seconds * float64(time.Second))
	rss := startRSSSampler()
	marks := []mark{take()}
	corrupt.Store(cfg.corrupt)
	h.hangNext.Store(cfg.hang)
	var untracedProbes, tracedProbes []probe
	if cfg.trace {
		var mid mark
		untracedProbes, mid = phase(marks[0], measured/2, phaseSlices/2)
		marks = append(marks, mid)
		rec.on.Store(true)
		var end mark
		tracedProbes, end = phase(mid, measured/2, phaseSlices/2)
		marks = append(marks, end)
	} else {
		var end mark
		untracedProbes, end = phase(marks[0], measured, phaseSlices)
		marks = append(marks, end)
	}
	rec.on.Store(false)
	rssSamples := rss.close()
	stopClients()
	recorded := rec.snapshot() // before the traced set-ups below add theirs
	corrupt.Store(false)

	mu.Lock()
	all := slices.Clone(jobs)
	mu.Unlock()
	// The measured jobs are those that finished inside the phase. A job that
	// failed counts wherever it ended, as long as it was posted by the end
	// of the phase: one that hung until the drain cut it off, or failed in
	// the warm-up, is a failed attempt too.
	first, last := marks[0].p.at, marks[len(marks)-1].p.at
	var window, failedOutside []*jobObs
	for _, j := range all {
		switch {
		case j.doneAt.After(first) && !j.doneAt.After(last):
			window = append(window, j)
		case j.err != nil && !j.post.After(last):
			failedOutside = append(failedOutside, j)
		}
	}
	if len(window) == 0 {
		return nil, nil, errNoJobs
	}
	rr.Attempted += len(window) + len(failedOutside)

	// Checks, outside the timed interval.
	var ref map[int]hash
	if w.fleet {
		ref = map[int]hash{}
		specs := map[int]bool{}
		for _, j := range window {
			specs[j.spec] = true
		}
		if err := reference(root, w, st, specs, ref); err != nil {
			return nil, nil, fmt.Errorf("single-node reference: %w", err)
		}
	}
	v := newVerifier(st, store, all, ref)
	checks := map[*jobObs]artifactCheck{}
	for _, j := range window {
		checks[j] = v.check(j)
	}
	if w.retireAge > 0 {
		rr.Attempted++
		if err := checkArchived(ctl, window, w.retireAge+10*time.Second); err != nil {
			fail("archive: " + err.Error())
		}
	}
	for _, j := range slices.Concat(window, failedOutside) {
		if j.err != nil {
			fail(j.err.Error())
		}
	}
	rr.Correct = rr.Failed == 0
	h.close()
	rr.HostCalibUS = median(append(calib, hostCalibration(calibrationRounds)...))
	for range perBlock {
		hh, _, err := setUpIn(1)
		if err != nil {
			return nil, nil, err
		}
		hh.close()
	}

	// End-to-end metrics over the whole measured phase (untraced run) or
	// its untraced half (traced run).
	untraced, phaseRec := measurePhase("untraced", window, untracedProbes, rssSamples, checks)
	untraced["setup_s"] = fasterBlock(rr.SetupS)
	rr.Phases = append(rr.Phases, phaseRec)
	rr.Server = serverDeltas(marks[0].exp, marks[len(marks)-1].exp)
	out := &output{Metrics: map[string]metricValue{}}
	if !cfg.trace {
		for _, m := range endToEnd {
			rr.Metrics[m.Name] = untraced[m.Name]
			out.Metrics[m.Name] = metricValue{untraced[m.Name], m.Unit}
		}
	} else {
		traced, phaseRec := measurePhase("traced", window, tracedProbes, rssSamples, checks)
		traced["setup_s"] = fasterBlock(tracedSetups)
		rr.Phases = append(rr.Phases, phaseRec)
		for k, v := range untraced {
			rr.Metrics["untraced."+k] = v
		}
		artifacts := map[int][]byte{}
		for _, j := range window {
			if j.err == nil {
				artifacts[j.spec] = store.get(j.spec, j.hash)
			}
		}
		rp, err := replay(st, artifacts, root, cfg.replay)
		if err != nil {
			return nil, nil, fmt.Errorf("replay: %w", err)
		}
		layers := layerValues(window, marks[1], marks[2], recorded, rp, checks)
		layers["host.calib_us"] = rr.HostCalibUS
		for _, m := range endToEnd {
			layers[overheadMetric(m.Name)] = traced[m.Name] - untraced[m.Name]
		}
		rr.Layers = tracedMetrics()
		for _, m := range rr.Layers {
			rr.Metrics[m.Name] = layers[m.Name]
			out.Metrics[m.Name] = metricValue{layers[m.Name], m.Unit}
		}
	}
	out.Correct, out.Attempted, out.Failed = rr.Correct, rr.Attempted, rr.Failed
	if cfg.record != "" {
		if err := writeRecord(cfg.record, rr); err != nil {
			return nil, nil, err
		}
	}
	return out, rr, nil
}

// setUp times one deployment from opening the manager to the first
// accepted submit, runner registration and spec generation included.
func setUp(root string, w *workload, seed uint64, rec *recorder, retried *atomic.Int64) (time.Duration, *harness, *specStream, error) {
	start := time.Now()
	h, err := openHarness(root, w, w.fleet, rec)
	if err != nil {
		return 0, nil, nil, err
	}
	st, err := newStream(w, seed)
	if err != nil {
		h.close()
		return 0, nil, nil, err
	}
	c := newAPIClient(h.base, retried)
	defer c.close()
	if _, err := c.submit(st.body[st.round(0)[0]]); err != nil {
		h.close()
		return 0, nil, nil, err
	}
	return time.Since(start), h, st, nil
}

// fasterBlock is the lowest median of the non-empty set-up blocks.
func fasterBlock(blocks [2][]float64) float64 {
	var out float64
	for _, b := range blocks {
		if m := median(b); len(b) > 0 && (out == 0 || m < out) {
			out = m
		}
	}
	return out
}

// reference computes each given spec once on a fresh single-node
// deployment and records its artifact hash: the fleet's artifacts must
// match it byte for byte. A spec whose reference fails maps to the zero
// hash, which no artifact matches.
func reference(root string, w *workload, st *specStream, specs map[int]bool, ref map[int]hash) error {
	h, err := openHarness(root, w, false, newRecorder())
	if err != nil {
		return err
	}
	defer h.close()
	var retried atomic.Int64
	c := newAPIClient(h.base, &retried)
	defer c.close()
	order := make([]int, 0, len(specs))
	for p := range specs {
		order = append(order, p)
	}
	sort.Ints(order)
	ids := make([]string, len(order))
	for i, p := range order {
		if ids[i], err = c.submit(st.body[p]); err != nil {
			return err
		}
	}
	for i, p := range order {
		ref[p] = hash{}
		if _, _, state, err := c.stream(ids[i]); err != nil || state != "done" {
			continue
		}
		if data, err := c.get("/v1/jobs/" + ids[i] + "/result"); err == nil {
			ref[p] = sha256Sum(data)
		}
	}
	return nil
}

// checkArchived waits for the retirement sweep to archive every measured
// job and fails each one archived other than exactly once.
func checkArchived(c *apiClient, window []*jobObs, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		ids, err := c.archivedIDs()
		if err != nil {
			return err
		}
		missing := 0
		for _, j := range window {
			if j.err == nil && ids[j.id] == 0 {
				missing++
			}
		}
		if missing == 0 || time.Now().After(deadline) {
			for _, j := range window {
				if j.err == nil && ids[j.id] != 1 {
					j.err = fmt.Errorf("job %s archived %d times", j.id, ids[j.id])
				}
			}
			return nil
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// phaseSlices is how many equal slices the measured phase is cut into
// (half of them per half of a traced run). The rate, CPU and latency
// metrics are taken over the calm slices: those in which the host's
// hypervisor stole at most calmSteal of the CPU (/proc/stat), or, when
// fewer than a quarter of the slices are that calm, the calmest quarter.
// On a shared host whose steal comes and goes within seconds, they read
// the program rather than its neighbours; a slower program is slower in
// every slice.
const (
	phaseSlices = 32
	calmSteal   = 0.02
)

// calmSlices returns the calm slices, adding slices in order of increasing
// steal until they hold at least one completed job.
func calmSlices(steal []float64, jobs []int) []int {
	order := make([]int, len(steal))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	n, held := 0, 0
	for n < len(order) && (n < max(1, len(order)/4) || steal[order[n]] <= calmSteal || held == 0) {
		held += jobs[order[n]]
		n++
	}
	kept := order[:n]
	sort.Ints(kept)
	return kept
}

// measurePhase computes the end-to-end metrics of one measured phase. Rate,
// CPU per job and the done-latency percentiles pool the jobs that finished
// in the phase's calmest slices, and count only jobs whose artifacts passed
// the checks; max_rss_mb is the highest resident-set sample of the whole
// phase, and best_cost_mean covers every spec the phase completed.
func measurePhase(name string, window []*jobObs, probes []probe, rss []rssSample, checks map[*jobObs]artifactCheck) (map[string]float64, phaseRecord) {
	in := func(t time.Time, a, b probe) bool { return t.After(a.at) && !t.After(b.at) }
	costs := map[int]float64{}
	var done [][]float64
	var deltas []phaseDelta
	var steal []float64
	var jobs []int
	rec := phaseRecord{Name: name}
	for i := 1; i < len(probes); i++ {
		a, b := probes[i-1], probes[i]
		var d []float64
		for _, j := range window {
			if j.err == nil && in(j.doneAt, a, b) {
				d = append(d, ms(j.done()))
				costs[j.spec] = checks[j].bestCost
			}
		}
		pd := delta(a, b)
		done, deltas = append(done, d), append(deltas, pd)
		steal, jobs = append(steal, pd.steal), append(jobs, len(d))
		rec.Slices = append(rec.Slices, sliceRecord{WallS: pd.wall.Seconds(), Jobs: len(d), StealShare: pd.steal,
			CPUMS: ms(pd.cpu), DoneP50MS: percentile(d, 0.5)})
		rec.Jobs += len(d)
	}
	var kept []float64
	var wall, cpu time.Duration
	for _, i := range calmSlices(steal, jobs) {
		kept = append(kept, done[i]...)
		wall += deltas[i].wall
		cpu += deltas[i].cpu
		rec.Slices[i].Kept = true
	}
	var peak float64
	for _, r := range rss {
		if in(r.at, probes[0], probes[len(probes)-1]) {
			peak = max(peak, r.mib)
		}
	}
	var costSum float64
	for _, c := range costs {
		costSum += c
	}
	whole := delta(probes[0], probes[len(probes)-1])
	rec.WallS, rec.CPUUtil, rec.StealShare = whole.wall.Seconds(), whole.cpuUtil, whole.steal
	rec.KeptJobs, rec.KeptWallS = len(kept), wall.Seconds()
	return map[string]float64{
		"jobs_per_s":     ratio(float64(len(kept)), wall.Seconds()),
		"done_p50_ms":    percentile(kept, 0.5),
		"done_p90_ms":    percentile(kept, 0.9),
		"done_p99_ms":    percentile(kept, 0.99),
		"cpu_ms_per_job": ratio(ms(cpu), float64(len(kept))),
		"max_rss_mb":     peak,
		// The mean over the distinct specs completed: each spec's best cost
		// is exact for a given commit, so timing cannot move it.
		"best_cost_mean": ratio(costSum, float64(len(costs))),
	}, rec
}

// serverDeltas is the change in every counter sample and histogram
// count/sum between two scrapes, keyed by sample name and labels.
func serverDeltas(a, b *obs.Exposition) map[string]float64 {
	out := map[string]float64{}
	if a == nil || b == nil {
		return out
	}
	for _, f := range b.Families {
		if f.Type != obs.TypeCounter && f.Type != obs.TypeHistogram {
			continue
		}
		for _, s := range f.Samples {
			if f.Type == obs.TypeHistogram && s.Name == f.Name+"_bucket" {
				continue
			}
			labels := map[string]string{}
			var keys []string
			for k, v := range s.Labels {
				if k != "version" {
					labels[k] = v
					keys = append(keys, k+"="+strconv.Quote(v))
				}
			}
			before, _ := a.Value(s.Name, labels)
			if d := s.Value - before; d != 0 {
				sort.Strings(keys)
				key := s.Name
				if len(keys) > 0 {
					key += "{" + strings.Join(keys, ",") + "}"
				}
				out[key] = d
			}
		}
	}
	return out
}

func writeRecord(path string, rr *runRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printSummary writes the run's metrics, one per line, to standard error.
func printSummary(rr *runRecord) {
	fmt.Fprintf(os.Stderr, "workload %s seed %d trace %v: correct=%v attempted=%d failed=%d (%s, %s, GOMAXPROCS=%d)\n",
		rr.Workload, rr.Seed, rr.Trace, rr.Correct, rr.Attempted, rr.Failed, rr.Env.Revision, rr.Env.CPUModel, rr.Env.GOMAXPROCS)
	for _, f := range rr.Failures {
		fmt.Fprintln(os.Stderr, "  failure:", f)
	}
	for _, p := range rr.Phases {
		fmt.Fprintf(os.Stderr, "  phase %-8s %6.2fs %5d jobs  cpu util %.2f  host steal %.3f  calm slices %.2fs %d jobs\n",
			p.Name, p.WallS, p.Jobs, p.CPUUtil, p.StealShare, p.KeptWallS, p.KeptJobs)
	}
	defs := endToEnd
	if rr.Trace {
		defs = rr.Layers
	}
	for _, m := range defs {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", m.Name, rr.Metrics[m.Name], m.Unit)
	}
}

// rssSampler samples the resident set every 50 ms until closed.
type rssSampler struct {
	samples []rssSample
	stop    chan struct{}
	done    chan struct{}
}

type rssSample struct {
	at  time.Time
	mib float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			s.samples = append(s.samples, rssSample{time.Now(), currentRSS()})
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// close stops the sampler and returns its samples.
func (s *rssSampler) close() []rssSample {
	close(s.stop)
	<-s.done
	return s.samples
}
