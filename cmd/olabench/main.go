// Command olabench regenerates the paper's evaluation tables (4.1 and
// 4.2(a)–(d)) over freshly generated GOLA/NOLA suites.
//
// Usage:
//
//	olabench [-table all|4.1|4.2a|4.2b|4.2c|4.2d|cohoon|maxcut] [-seed N] [-scale F]
//	         [-plateau accept|accept+reset|reject] [-seq] [-workers N] [-timeout D]
//	         [-engine fig1|tempering] [-chains 4] [-exchange-every 256] [-batch B]
//	         [-checkpoint DIR] [-resume]
//	         [-metrics] [-events out.jsonl] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -scale multiplies every budget (1 = the paper's 6/9/12-second and
// 3-minute CPU allowances at 200 moves per VAX second). -workers bounds the
// cell scheduler (0 = all cores, 1 = sequential); stdout is byte-identical
// for every worker count. -timeout stops the run after a wall-clock limit,
// and Ctrl-C interrupts gracefully — either way the tables computed so far
// are flushed, not lost. -checkpoint DIR journals every completed cell to a
// write-ahead log under DIR (one fsync'd record per cell), and -resume
// reloads it after a crash or kill: recorded cells are skipped and the final
// tables are byte-identical to an uninterrupted run. -metrics prints a
// per-method telemetry summary under each table; -events streams every
// engine decision of every cell as JSONL (deterministic for a fixed seed,
// byte-identical with and without -seq). -cpuprofile/-memprofile write pprof
// profiles of the whole invocation (see `make profile`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mcopt/internal/atomicio"
	"mcopt/internal/buildinfo"
	"mcopt/internal/checkpoint"
	"mcopt/internal/core"
	"mcopt/internal/experiment"
	"mcopt/internal/metrics"
	"mcopt/internal/sched"
)

// csvName converts a table title into a safe file stem like "table_4.1".
func csvName(title string) string {
	fields := strings.Fields(title)
	if len(fields) >= 2 {
		return "table_" + strings.Trim(fields[1], "—-")
	}
	return "table"
}

func main() {
	table := flag.String("table", "all", "which table to regenerate: all, 4.1, 4.2a, 4.2b, 4.2c, 4.2d, cohoon (the §4.2.2 best-heuristic aside), maxcut (the X3 plugin-domain comparison); cohoon and maxcut are not in 'all'")
	seed := flag.Uint64("seed", 1, "suite and run seed")
	scale := flag.Float64("scale", 1, "budget scale factor (1 = paper budgets)")
	plateau := flag.String("plateau", "accept", "zero-delta policy: accept, accept+reset, reject")
	seq := flag.Bool("seq", false, "run cells sequentially (same as -workers 1)")
	workers := flag.Int("workers", 0, "cell scheduler width (0 = all cores); output is identical for any value")
	engine := flag.String("engine", "fig1", "engine behind Figure-1 methods: fig1 (serial walk) or tempering (replica exchange)")
	chains := flag.Int("chains", 4, "tempering chain count (with -engine=tempering)")
	exchangeEvery := flag.Int64("exchange-every", 256, "tempering moves per chain between exchange attempts")
	batch := flag.Int("batch", 0, "draw proposals in blocks of this size (0/1 = serial); a distinct deterministic trajectory")
	timeout := flag.Duration("timeout", 0, "stop after this wall-clock limit, flushing partial tables (0 = none)")
	ckptDir := flag.String("checkpoint", "", "journal completed cells to write-ahead logs under this directory")
	resume := flag.Bool("resume", false, "continue from the journals left in -checkpoint by an earlier run")
	replicates := flag.Int("replicates", 1, "independent replications (fresh instances per seed); >1 prints mean±std for 4.1/4.2a/4.2c/4.2d")
	csvDir := flag.String("csvdir", "", "also write each table's raw per-instance measurements as CSV into this directory")
	showMetrics := flag.Bool("metrics", false, "print a per-method telemetry summary under each table")
	eventsPath := flag.String("events", "", "write every engine decision as JSONL to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	version := buildinfo.Flag()
	flag.Parse()
	buildinfo.HandleFlag("olabench", version)

	// Exit through a latched code so the profile/events defers below still
	// flush when a run ends early (interrupt, timeout, cell failure).
	exitCode := 0
	defer func() {
		if exitCode != 0 {
			os.Exit(exitCode)
		}
	}()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "olabench: "+format+"\n", args...)
		exitCode = 1
	}

	if *cpuProfile != "" {
		stop, err := metrics.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "olabench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fail("%v", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := metrics.WriteHeapProfile(*memProfile); err != nil {
				fail("%v", err)
			}
		}()
	}

	var events io.Writer
	if *eventsPath != "" {
		// Atomic artifact: the stream lands in a temp file and only replaces
		// *eventsPath on a clean commit, so readers never see a torn log.
		f, err := atomicio.Create(*eventsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "olabench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Commit(); err != nil {
				fail("events: %v", err)
			}
		}()
		events = f
	}

	ckpt, err := checkpoint.FromFlags(*ckptDir, *resume)
	if err != nil {
		fmt.Fprintf(os.Stderr, "olabench: %v\n", err)
		os.Exit(2)
	}

	ctx, cancel := sched.CLIContext(*timeout)
	defer cancel()

	switch *engine {
	case "fig1", "tempering":
	default:
		fmt.Fprintf(os.Stderr, "olabench: unknown engine %q\n", *engine)
		os.Exit(2)
	}
	cfg := experiment.Config{
		Seed:       *seed,
		Sequential: *seq,
		Exec:       sched.Options{Workers: *workers, Ctx: ctx, Checkpoint: ckpt},
		Batch:      *batch,
	}
	if *engine == "tempering" {
		cfg.Engine = *engine
		cfg.Chains = *chains
		cfg.ExchangeEvery = *exchangeEvery
	}
	switch *plateau {
	case "accept":
		cfg.Plateau = core.PlateauAccept
	case "accept+reset":
		cfg.Plateau = core.PlateauAcceptReset
	case "reject":
		cfg.Plateau = core.PlateauReject
	default:
		fmt.Fprintf(os.Stderr, "olabench: unknown plateau policy %q\n", *plateau)
		os.Exit(2)
	}

	budgets := experiment.PaperBudgets(*scale)
	budget42b := int64(*scale * float64(experiment.Seconds(180)))

	// pendingMetrics, when set by tableOf, prints the telemetry summary
	// after its table renders.
	var pendingMetrics func()
	run := func(name string, f func() (*experiment.Table, error)) {
		start := time.Now()
		t, err := f()
		// The table renders even when err is non-nil: an interrupted run
		// flushes the cells it finished rather than losing them.
		if t != nil {
			if rerr := t.Render(os.Stdout); rerr != nil {
				fail("%v", rerr)
				return
			}
		}
		if pendingMetrics != nil {
			pendingMetrics()
			pendingMetrics = nil
		}
		fmt.Println()
		// Timing goes to stderr: stdout must be byte-identical across runs
		// and worker counts (the CI determinism gate diffs it).
		fmt.Fprintf(os.Stderr, "(%s in %.1fs)\n", name, time.Since(start).Seconds())
		if err != nil {
			fail("%s: %v", name, err)
		}
	}

	// newTelemetry returns a per-table collector when telemetry is wanted.
	newTelemetry := func() *experiment.Telemetry {
		if !*showMetrics && events == nil {
			return nil
		}
		return experiment.NewTelemetry(events)
	}
	// methodSummary prints one telemetry row per method at the given budget.
	methodSummary := func(tel *experiment.Telemetry, names []string, budget int64, b int) {
		if tel == nil || !*showMetrics {
			return
		}
		if err := tel.Err(); err != nil {
			fail("events: %v", err)
			return
		}
		fmt.Printf("telemetry at budget %d:\n", budget)
		fmt.Printf("%-27s %10s %8s %10s %14s %12s\n",
			"method", "proposals", "accept", "uphill-acc", "moves-to-best", "utilization")
		for m, name := range names {
			rm := tel.MethodMetrics(m, b)
			if rm.Runs == 0 {
				continue
			}
			var uphill int64
			for i := range rm.Levels {
				uphill += rm.Levels[i].UphillAccepted
			}
			fmt.Printf("%-27s %10d %7.1f%% %10d %14.1f %11.1f%%\n",
				name, rm.Proposed, 100*rm.AcceptanceRate(), uphill,
				float64(rm.MovesToBest)/float64(rm.Runs), 100*rm.Utilization())
		}
	}

	seeds := make([]uint64, max(*replicates, 1))
	for i := range seeds {
		seeds[i] = *seed + uint64(i)
	}
	// dumpCSV writes a matrix's raw measurements when -csvdir is set.
	dumpCSV := func(name string, x *experiment.Matrix) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail("%v", err)
			return
		}
		path := filepath.Join(*csvDir, name+".csv")
		f, err := atomicio.Create(path)
		if err != nil {
			fail("%v", err)
			return
		}
		if err := x.WriteCSV(f); err != nil {
			f.Discard()
			fail("write %s: %v", path, err)
			return
		}
		if err := f.Commit(); err != nil {
			fail("write %s: %v", path, err)
		}
	}

	// tableOf picks plain or replicated rendering for the reduction tables.
	tableOf := func(title string, build func(seed uint64, budgets []int64, cfg experiment.Config) (*experiment.Table, *experiment.Matrix, error)) (*experiment.Table, error) {
		tcfg := cfg
		tel := newTelemetry()
		tcfg.Telemetry = tel
		summarize := func(x *experiment.Matrix) {
			if tel != nil {
				b := len(budgets) - 1
				pendingMetrics = func() { methodSummary(tel, x.MethodNames, budgets[b], b) }
			}
		}
		if len(seeds) == 1 {
			t, x, err := build(seeds[0], budgets, tcfg)
			dumpCSV(csvName(title), x)
			summarize(x)
			return t, err
		}
		// Replications run one at a time (Workers: 1): a shared Telemetry
		// keys cells by (method, budget, instance), which repeats across
		// seeds. Each replication still parallelizes internally via tcfg.
		rep, err := experiment.Replicate(seeds, sched.Options{Workers: 1, Ctx: ctx},
			func(s uint64) (*experiment.Matrix, error) {
				_, x, err := build(s, budgets, tcfg)
				summarize(x)
				return x, err
			})
		if rep == nil {
			return nil, err
		}
		return rep.Table(title), err
	}

	want := func(name string) bool {
		if *table == "all" {
			return name != "cohoon" && name != "maxcut"
		}
		return strings.EqualFold(*table, name)
	}
	matched := false
	if want("4.1") {
		matched = true
		run("4.1", func() (*experiment.Table, error) {
			return tableOf("Table 4.1 — GOLA, random starts, Figure 1", experiment.Table41)
		})
	}
	if want("4.2a") {
		matched = true
		run("4.2a", func() (*experiment.Table, error) {
			return tableOf("Table 4.2(a) — GOLA, Goto starts, Figure 1", experiment.Table42a)
		})
	}
	if want("4.2b") {
		matched = true
		run("4.2b", func() (*experiment.Table, error) {
			// 4.2(b) interleaves Figure-1 and Figure-2 passes, so it gets
			// the event stream but no per-method summary table.
			tcfg := cfg
			tcfg.Telemetry = newTelemetry()
			t, _, _, err := experiment.Table42b(*seed, budget42b, tcfg)
			return t, err
		})
	}
	if want("4.2c") {
		matched = true
		run("4.2c", func() (*experiment.Table, error) {
			return tableOf("Table 4.2(c) — NOLA, random starts, Figure 1", experiment.Table42c)
		})
	}
	if want("4.2d") {
		matched = true
		run("4.2d", func() (*experiment.Table, error) {
			return tableOf("Table 4.2(d) — NOLA, Goto starts, Figure 1", experiment.Table42d)
		})
	}
	if want("cohoon") {
		matched = true
		run("cohoon", func() (*experiment.Table, error) {
			return experiment.CohoonBest(*seed, budgets, cfg.Exec)
		})
	}
	if want("maxcut") {
		matched = true
		run("maxcut", func() (*experiment.Table, error) {
			// X3 runs at a 5-minute equivalent per cell, like partbench.
			return experiment.MaxCutComparison(*seed, 10, 64, 192,
				int64(*scale*float64(experiment.Seconds(300))), cfg.Exec)
		})
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "olabench: unknown table %q\n", *table)
		os.Exit(2)
	}
}
