// Root benchmark harness: one testing.B benchmark per paper table (E1–E5),
// the tuning procedure (E6), the extension experiments (X1, X2), the
// ablations DESIGN.md calls out (A1–A4), and micro-benchmarks of the hot
// substrate operations.
//
// Table benchmarks run the exact pipelines behind cmd/olabench at a reduced
// budget scale (benchScale) so that `go test -bench=.` completes quickly;
// cmd/olabench regenerates the paper-scale tables and EXPERIMENTS.md records
// them. Each benchmark reports the suite-total density reduction of a
// representative method as a metric, so regressions in search quality — not
// just speed — show up in benchmark diffs.
package mcopt_test

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"testing"

	"mcopt"
	"mcopt/internal/core"
	"mcopt/internal/experiment"
	"mcopt/internal/gfunc"
	"mcopt/internal/linarr"
	"mcopt/internal/maxcut"
	"mcopt/internal/metrics"
	"mcopt/internal/obs"
	"mcopt/internal/sched"
	"mcopt/internal/schedule"
	"mcopt/internal/tuner"
)

// benchScale reduces the paper budgets (6/9/12 s → 1200/1800/2400 moves) by
// 10× for benchmark iterations.
const benchScale = 0.1

func reductionOf(x *experiment.Matrix, method string) int {
	for m, name := range x.MethodNames {
		if name == method {
			return x.Reduction(m, len(x.Budgets)-1)
		}
	}
	return -1
}

func BenchmarkTable41(b *testing.B) {
	budgets := experiment.PaperBudgets(benchScale)
	for i := 0; i < b.N; i++ {
		_, x, _ := experiment.Table41(1, budgets, experiment.Config{})
		b.ReportMetric(float64(reductionOf(x, "g = 1")), "gOneReduction")
	}
}

func BenchmarkTable42a(b *testing.B) {
	budgets := experiment.PaperBudgets(benchScale)
	for i := 0; i < b.N; i++ {
		_, x, _ := experiment.Table42a(1, budgets, experiment.Config{})
		b.ReportMetric(float64(reductionOf(x, "Six Temperature Annealing")), "sixTempImprovement")
	}
}

func BenchmarkTable42b(b *testing.B) {
	budget := int64(benchScale * float64(experiment.Seconds(180)))
	for i := 0; i < b.N; i++ {
		_, f1, f2, _ := experiment.Table42b(1, budget, experiment.Config{})
		b.ReportMetric(float64(f1.Reduction(0, 0)), "cohoonFig1")
		b.ReportMetric(float64(f2.Reduction(0, 0)), "cohoonFig2")
	}
}

func BenchmarkTable42c(b *testing.B) {
	budgets := experiment.PaperBudgets(benchScale)
	for i := 0; i < b.N; i++ {
		_, x, _ := experiment.Table42c(1, budgets, experiment.Config{})
		b.ReportMetric(float64(reductionOf(x, "g = 1")), "gOneReduction")
	}
}

func BenchmarkTable42d(b *testing.B) {
	budgets := experiment.PaperBudgets(benchScale)
	for i := 0; i < b.N; i++ {
		_, x, _ := experiment.Table42d(1, budgets, experiment.Config{})
		b.ReportMetric(float64(reductionOf(x, "Exponential Diff")), "expDiffImprovement")
	}
}

func BenchmarkTuner(b *testing.B) {
	p := experiment.GOLAParams()
	p.Instances = 8
	suite := experiment.NewSuite(p, 1)
	start := func(inst int) core.Solution {
		return linarr.NewSolution(suite.Start(inst), linarr.PairwiseInterchange)
	}
	builder, _ := gfunc.ByID(2)
	cfg := tuner.Config{Budget: 300, Instances: p.Instances, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := tuner.TuneClass(builder, experiment.GOLAScale(), start, cfg)
		b.ReportMetric(res.Best.Reduction, "bestReduction")
	}
}

func BenchmarkPartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, _ := experiment.PartitionComparison(1, 4, 32, 96, 6000, sched.Options{})
		if len(t.Rows) != 7 {
			b.Fatal("unexpected X1 shape")
		}
	}
}

func BenchmarkTSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, _ := experiment.TSPComparison(1, 4, 40, 10000, sched.Options{})
		if len(t.Rows) != 6 {
			b.Fatal("unexpected X2 shape")
		}
	}
}

// BenchmarkCohoonBest measures the §4.2.2 aside: [COHO83a]'s best heuristic
// (Figure 2, single exchange, Goto start) against the configuration Table
// 4.1 actually ran.
func BenchmarkCohoonBest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, _ := experiment.CohoonBest(1, []int64{240}, sched.Options{})
		if len(tab.Rows) != 4 {
			b.Fatal("unexpected shape")
		}
	}
}

// ---- Ablations (A1–A4 in DESIGN.md) ----

// ablationSuite is a shared small GOLA suite for the ablation benches.
func ablationSuite() *experiment.Suite {
	p := experiment.GOLAParams()
	p.Instances = 10
	return experiment.NewSuite(p, 11)
}

// Benchmark_AblationScheduleSensitivity quantifies §4.2.5 conclusion 1
// ("the performance of each g class ... is quite sensitive to the
// temperature schedule used") by running six-temperature annealing at a
// cold, the tuned, and a hot schedule.
func Benchmark_AblationScheduleSensitivity(b *testing.B) {
	suite := ablationSuite()
	builder, _ := gfunc.ByID(2)
	for _, tc := range []struct {
		name string
		mult float64
	}{
		{"cold", 0.125},
		{"tuned", experiment.TunedGOLA[2]},
		{"hot", 8},
	} {
		methods := []experiment.Method{
			experiment.ClassMethod(builder, experiment.GOLAScale(), map[int]float64{2: tc.mult}),
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x, _ := experiment.Run(suite, methods, []int64{1200}, experiment.Config{Seed: 1})
				b.ReportMetric(float64(x.Reduction(0, 0)), "reduction")
			}
		})
	}
}

// Benchmark_AblationGate compares the paper's gate-18 implementation of
// g = 1 against the naive ungated version whose "straightforward
// implementation ... results in a random walk" (§3).
func Benchmark_AblationGate(b *testing.B) {
	suite := ablationSuite()
	for _, tc := range []struct {
		name string
		g    mcopt.G
	}{
		{"gate18", gfunc.One()},
		{"ungated", gfunc.OneUngated()},
	} {
		method := experiment.Method{
			Name:     tc.name,
			Strategy: experiment.Fig1,
			NewG:     func(*mcopt.Netlist) mcopt.G { return tc.g },
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x, _ := experiment.Run(suite, []experiment.Method{method}, []int64{1200}, experiment.Config{Seed: 1})
				b.ReportMetric(float64(x.Reduction(0, 0)), "reduction")
			}
		})
	}
}

// Benchmark_AblationBudgetScaling tracks §4.2.5 conclusion 2/4: more
// computing time helps every method, flattening out as classes converge.
func Benchmark_AblationBudgetScaling(b *testing.B) {
	suite := ablationSuite()
	builder, _ := gfunc.ByID(3) // g = 1
	methods := []experiment.Method{experiment.ClassMethod(builder, experiment.GOLAScale(), nil)}
	for _, budget := range []int64{300, 1200, 4800} {
		b.Run(budgetName(budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x, _ := experiment.Run(suite, methods, []int64{budget}, experiment.Config{Seed: 1})
				b.ReportMetric(float64(x.Reduction(0, 0)), "reduction")
			}
		})
	}
}

func budgetName(bud int64) string {
	switch {
	case bud <= 300:
		return "short"
	case bud <= 1200:
		return "paper6s"
	default:
		return "long"
	}
}

// Benchmark_AblationStartQuality probes §4.2.5 conclusion 3: at modest
// budgets, starting from Goto's arrangement yields better final densities
// than starting from random.
func Benchmark_AblationStartQuality(b *testing.B) {
	random := ablationSuite()
	gotoStart := random.WithGotoStarts()
	builder, _ := gfunc.ByID(3)
	methods := []experiment.Method{experiment.ClassMethod(builder, experiment.GOLAScale(), nil)}
	for _, tc := range []struct {
		name  string
		suite *experiment.Suite
	}{
		{"randomStart", random},
		{"gotoStart", gotoStart},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x, _ := experiment.Run(tc.suite, methods, []int64{600}, experiment.Config{Seed: 1})
				total := 0
				for _, d := range x.BestDensities[0][0] {
					total += d
				}
				b.ReportMetric(float64(total), "finalDensitySum")
			}
		})
	}
}

// Benchmark_AblationMoveClass compares the paper's pairwise-interchange
// perturbation against [COHO83a]'s single-exchange (remove/reinsert) class
// under identical budgets — the §3 remark that a perturbation "may, for
// example, be a pairwise exchange or may involve a random change in a
// single element" made measurable.
func Benchmark_AblationMoveClass(b *testing.B) {
	suite := ablationSuite()
	builder, _ := gfunc.ByID(3) // g = 1
	methods := []experiment.Method{experiment.ClassMethod(builder, experiment.GOLAScale(), nil)}
	for _, tc := range []struct {
		name string
		kind linarr.MoveKind
	}{
		{"pairwise", linarr.PairwiseInterchange},
		{"singleExchange", linarr.SingleExchange},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x, _ := experiment.Run(suite, methods, []int64{1200},
					experiment.Config{Seed: 1, MoveKind: tc.kind})
				b.ReportMetric(float64(x.Reduction(0, 0)), "reduction")
			}
		})
	}
}

// ---- Substrate micro-benchmarks ----

func BenchmarkSwapEval(b *testing.B) {
	nl := mcopt.RandomGraph(mcopt.Stream("bench/swap", 1), 15, 150)
	a := mcopt.RandomArrangement(nl, mcopt.Stream("bench/swap-start", 1))
	a.EvalSwap(0, 14) // warm the proposal buffers so steady state is 0 allocs/op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := a.EvalSwap(i%14, 14)
		if m.DeltaInt() < -1000 {
			b.Fatal("impossible delta")
		}
	}
}

// BenchmarkSwapEvalHyper is BenchmarkSwapEval on the paper's NOLA shape —
// 15 cells, 150 nets of 2 to 8 pins, the Figure-2 instances — where a net
// holds several cells and a swap can move one of its second extremes.
func BenchmarkSwapEvalHyper(b *testing.B) {
	nl := mcopt.RandomHyper(mcopt.Stream("bench/swap-hyper", 1), 15, 150, 2, 8)
	a := mcopt.RandomArrangement(nl, mcopt.Stream("bench/swap-hyper-start", 1))
	a.EvalSwap(0, 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := a.EvalSwap(i%14, 14)
		if m.DeltaInt() < -1000 {
			b.Fatal("impossible delta")
		}
	}
}

// BenchmarkSwapEvalLarge pins the kernel's size scaling: proposal cost must
// grow with the nets a move touches (roughly constant here) plus one pass
// over the gaps between the two positions, not with the nets' spans. The
// paper's regime (10 nets per cell) is held fixed while n grows well past
// the paper's 15 cells.
func BenchmarkSwapEvalLarge(b *testing.B) {
	for _, n := range []int{15, 100, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nl := mcopt.RandomGraph(mcopt.Stream("bench/swap-large", 1), n, 10*n)
			a := mcopt.RandomArrangement(nl, mcopt.Stream("bench/swap-large-start", 1))
			a.EvalSwap(0, n-1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := a.EvalSwap(i%(n-1), n-1)
				if m.DeltaInt() < -1000000 {
					b.Fatal("impossible delta")
				}
			}
		})
	}
}

func BenchmarkSwapApply(b *testing.B) {
	nl := mcopt.RandomGraph(mcopt.Stream("bench/apply", 1), 15, 150)
	a := mcopt.RandomArrangement(nl, mcopt.Stream("bench/apply-start", 1))
	a.EvalSwap(0, 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.EvalSwap(i%14, 14).Apply()
	}
}

func BenchmarkReinsertEval(b *testing.B) {
	nl := mcopt.RandomHyper(mcopt.Stream("bench/reinsert", 1), 15, 150, 2, 8)
	a := mcopt.RandomArrangement(nl, mcopt.Stream("bench/reinsert-start", 1))
	a.EvalReinsert(0, 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.EvalReinsert(i%15, (i+7)%15).DeltaInt() < -1000 {
			b.Fatal("impossible delta")
		}
	}
}

func BenchmarkGotoOrder(b *testing.B) {
	nl := mcopt.RandomHyper(mcopt.Stream("bench/goto", 1), 15, 150, 2, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(mcopt.GotoOrder(nl)) != 15 {
			b.Fatal("bad order")
		}
	}
}

func BenchmarkFigure1GOLA(b *testing.B) {
	nl := mcopt.RandomGraph(mcopt.Stream("bench/fig1", 1), 15, 150)
	start := mcopt.RandomArrangement(nl, mcopt.Stream("bench/fig1-start", 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := mcopt.NewLinearSolution(start.Clone(), mcopt.PairwiseInterchange)
		res := mcopt.Figure1{G: mcopt.GOne()}.Run(sol, mcopt.NewBudget(1200),
			mcopt.DeriveStream("bench/fig1-run", 1, uint64(i)))
		b.ReportMetric(res.Reduction(), "reduction")
	}
}

// BenchmarkFigure1Hooks pins the telemetry fast path: the nil sub-benchmark
// must stay within noise of BenchmarkFigure1GOLA (a nil hook costs one
// pointer comparison per decision point), while the instrumented variants
// quantify what metrics aggregation and JSONL encoding add.
func BenchmarkFigure1Hooks(b *testing.B) {
	nl := mcopt.RandomGraph(mcopt.Stream("bench/hooks", 1), 15, 150)
	start := mcopt.RandomArrangement(nl, mcopt.Stream("bench/hooks-start", 1))
	run := func(b *testing.B, hook mcopt.Hook) {
		for i := 0; i < b.N; i++ {
			sol := mcopt.NewLinearSolution(start.Clone(), mcopt.PairwiseInterchange)
			res := mcopt.Figure1{G: mcopt.GOne(), Hook: hook}.Run(sol, mcopt.NewBudget(1200),
				mcopt.DeriveStream("bench/hooks-run", 1, uint64(i)))
			if res.Moves == 0 {
				b.Fatal("empty run")
			}
		}
	}
	b.Run("nil", func(b *testing.B) { run(b, nil) })
	b.Run("metrics", func(b *testing.B) {
		var rm metrics.RunMetrics
		run(b, rm.Hook())
	})
	b.Run("jsonl", func(b *testing.B) {
		run(b, metrics.NewEventWriter(io.Discard, "bench").Hook())
	})
}

// BenchmarkHookObs measures the obs registry bridge the service tees into
// every replica, on one linarr chain: a per-run tally of plain increments,
// published to the shared counters at level transitions and run end.
// Compare against BenchmarkFigure1Hooks/nil and /metrics — the bridge should
// sit near the metrics variant, since both are a few increments per decision.
// One core cannot show contention on the shared counters;
// BenchmarkHookObsParallel does.
func BenchmarkHookObs(b *testing.B) {
	nl := mcopt.RandomGraph(mcopt.Stream("bench/hooks", 1), 15, 150)
	start := mcopt.RandomArrangement(nl, mcopt.Stream("bench/hooks-start", 1))
	col := metrics.NewEngineCollector(obs.NewRegistry())
	hook := col.Hook()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := mcopt.NewLinearSolution(start.Clone(), mcopt.PairwiseInterchange)
		res := mcopt.Figure1{G: mcopt.GOne(), Hook: hook}.Run(sol, mcopt.NewBudget(1200),
			mcopt.DeriveStream("bench/hooks-run", 1, uint64(i)))
		if res.Moves == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkHookObsParallel runs replicas of the small-jobs max-cut spec
// (48 vertices, 180 edges, 8000 moves, g = 1) on every core through
// b.RunParallel, one op per replica. The served variant observes each
// replica as mcoptd does: a fresh EngineCollector hook, shared counters
// behind it, teed with a filter that keeps the run skeleton its job stream
// carries. A hook that touched the shared counters per proposal would make
// concurrent replicas contend for their cache lines; against the nil
// variant this shows what observing a served replica costs.
func BenchmarkHookObsParallel(b *testing.B) {
	g := maxcut.Random(mcopt.Stream("bench/hookpar", 1), 48, 180)
	start := maxcut.RandomCut(g, mcopt.Stream("bench/hookpar-start", 1))
	col := metrics.NewEngineCollector(obs.NewRegistry())
	run := func(b *testing.B, served bool) {
		var seed atomic.Uint64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			var last metrics.Record
			skeleton := func(e mcopt.Event) {
				switch e.Kind {
				case core.EventPropose, core.EventAccept, core.EventReject:
				default:
					last = metrics.RecordOf("run@0", e)
				}
			}
			for pb.Next() {
				var hook mcopt.Hook
				if served {
					hook = metrics.Tee(col.Hook(), skeleton)
				}
				sol := maxcut.NewSolution(start.Clone())
				res := mcopt.Figure1{G: mcopt.GOne(), Hook: hook}.Run(sol, mcopt.NewBudget(8000),
					mcopt.DeriveStream("bench/hookpar-run", 1, seed.Add(1)))
				if res.Moves == 0 {
					b.Error("empty run")
				}
			}
			_ = last
		})
	}
	b.Run("nil", func(b *testing.B) { run(b, false) })
	b.Run("served", func(b *testing.B) { run(b, true) })
}

// BenchmarkTempering measures the replica-exchange engine's aggregate
// throughput: each chain gets the same 1200-move slice, so the budget grows
// with K and the moves/s metric is the whole-ladder rate. On a multi-core
// host K=8 should approach 8× the K=1 rate (the chains step on independent
// workers between barriers); on a single core the K variants stay near par,
// which bounds the coordination overhead instead. K=4/B=16 is the
// paper-grid tempering shape: its chains draw blocks of 16 and evaluate
// only the candidates they decide, up to each block's first accept.
func BenchmarkTempering(b *testing.B) {
	nl := mcopt.RandomGraph(mcopt.Stream("bench/pt", 1), 15, 150)
	start := mcopt.RandomArrangement(nl, mcopt.Stream("bench/pt-start", 1))
	for _, c := range []struct{ k, batch int }{{1, 0}, {4, 0}, {8, 0}, {4, 16}} {
		name := fmt.Sprintf("K=%d", c.k)
		if c.batch > 0 {
			name += fmt.Sprintf("/B=%d", c.batch)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var moves int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol := mcopt.NewLinearSolution(start.Clone(), mcopt.PairwiseInterchange)
				res := mcopt.Tempering{G: mcopt.GOne(), Chains: c.k, ExchangeEvery: 256, Batch: c.batch}.
					Run(sol, mcopt.NewBudget(int64(c.k)*1200), mcopt.DeriveStream("bench/pt-run", 1, uint64(i)))
				moves += res.Moves
			}
			b.ReportMetric(float64(moves)/b.Elapsed().Seconds(), "moves/s")
		})
	}
}

// BenchmarkBatchSwapEval measures per-candidate evaluation cost under
// batching: one op is one evaluated swap candidate, with ProposeBatch
// evaluating every candidate of the block. Every candidate goes through the
// serial evaluator, so the B variants converge; they differ only by the
// per-block draw setup. The serial kernel baselines are BenchmarkSwapEval
// and BenchmarkSwapEvalLarge.
// The instance is a large sparse graph (n=4096, 2 nets per cell): 64 gap
// blocks, so a swap's window spans many blocks that hold no posted
// endpoint and are read through their committed maxima.
func BenchmarkBatchSwapEval(b *testing.B) {
	nl := mcopt.RandomGraph(mcopt.Stream("bench/batch", 1), 4096, 8192)
	start := mcopt.RandomArrangement(nl, mcopt.Stream("bench/batch-start", 1))
	for _, batch := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("B=%d", batch), func(b *testing.B) {
			sol := mcopt.NewLinearSolution(start.Clone(), mcopt.PairwiseInterchange)
			r := mcopt.DeriveStream("bench/batch-run", 1, uint64(batch))
			deltas := make([]float64, batch)
			sol.ProposeBatch(r, deltas) // warm the scratch: steady state is 0 allocs/op
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += batch {
				sol.ProposeBatch(r, deltas)
			}
		})
	}
}

func BenchmarkFigure2GOLA(b *testing.B) {
	nl := mcopt.RandomGraph(mcopt.Stream("bench/fig2", 1), 15, 150)
	start := mcopt.RandomArrangement(nl, mcopt.Stream("bench/fig2-start", 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := mcopt.NewLinearSolution(start.Clone(), mcopt.PairwiseInterchange)
		res := mcopt.Figure2{G: mcopt.GOne()}.Run(sol, mcopt.NewBudget(1200),
			mcopt.DeriveStream("bench/fig2-run", 1, uint64(i)))
		b.ReportMetric(res.Reduction(), "reduction")
	}
}

// BenchmarkFigure2NOLA is the paper-grid Figure-2 shape: a 15-cell,
// 150-net NOLA instance (2–8 pins per net, the service's default) under
// the full 2400-move budget, which first-improvement descents dominate.
func BenchmarkFigure2NOLA(b *testing.B) {
	nl := mcopt.RandomHyper(mcopt.Stream("bench/fig2-nola", 1), 15, 150, 2, 8)
	start := mcopt.RandomArrangement(nl, mcopt.Stream("bench/fig2-nola-start", 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := mcopt.NewLinearSolution(start.Clone(), mcopt.PairwiseInterchange)
		res := mcopt.Figure2{G: mcopt.GOne()}.Run(sol, mcopt.NewBudget(2400),
			mcopt.DeriveStream("bench/fig2-nola-run", 1, uint64(i)))
		b.ReportMetric(res.Reduction(), "reduction")
	}
}

func BenchmarkPartitionSwapDelta(b *testing.B) {
	nl := mcopt.RandomHyper(mcopt.Stream("bench/part", 1), 64, 192, 2, 4)
	p := mcopt.RandomBipartition(nl, mcopt.Stream("bench/part-start", 1))
	var left, right []int
	for c := 0; c < 64; c++ {
		if p.Side(c) == 0 {
			left = append(left, c)
		} else {
			right = append(right, c)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.SwapDelta(left[i%len(left)], right[i%len(right)]) < -1000 {
			b.Fatal("impossible delta")
		}
	}
}

func BenchmarkKernighanLin(b *testing.B) {
	nl := mcopt.RandomHyper(mcopt.Stream("bench/kl", 1), 32, 96, 2, 4)
	start := mcopt.RandomBipartition(nl, mcopt.Stream("bench/kl-start", 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := start.Clone()
		mcopt.KernighanLin(p, mcopt.NewBudget(10000))
		b.ReportMetric(float64(p.CutSize()), "cut")
	}
}

func BenchmarkTwoOptDescend(b *testing.B) {
	inst := mcopt.RandomEuclidean(mcopt.Stream("bench/2opt", 1), 60)
	start := mcopt.RandomTour(inst, mcopt.Stream("bench/2opt-start", 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := start.Clone().(*mcopt.Tour)
		t.Descend(mcopt.NewBudget(1 << 20))
		b.ReportMetric(t.Length(), "length")
	}
}

// BenchmarkSizeSweep exercises the instance-size scaling study at reduced
// scale (see cmd/olasweep for the full version).
func BenchmarkSizeSweep(b *testing.B) {
	p := experiment.SweepParams{
		Sizes:       []int{8, 15, 25},
		NetsPerCell: 10,
		Instances:   3,
		Budget:      600,
		Seed:        1,
	}
	for i := 0; i < b.N; i++ {
		if tab, _ := experiment.SizeSweep(p); len(tab.Rows) != 3 {
			b.Fatal("unexpected sweep shape")
		}
	}
}

// Benchmark_AblationScheduleShape compares schedule *shapes* at matched
// magnitude: the paper's six-level geometric (Kirkpatrick, [KIRK83]), a
// six-level uniform grid, and the 25-level uniform grid of [GOLD84] —
// the two published schedule philosophies §1 describes.
func Benchmark_AblationScheduleShape(b *testing.B) {
	suite := ablationSuite()
	b2, _ := gfunc.ByID(2)
	base := b2.DefaultYs(experiment.GOLAScale()) // tuned-magnitude geometric
	tau := base[0]
	for _, tc := range []struct {
		name string
		g    mcopt.G
	}{
		{"geometric6", gfunc.SixTempAnnealing(base)},
		{"uniform6", gfunc.Annealing(schedule.Uniform(tau, 6))},
		{"uniform25", gfunc.Annealing(schedule.Uniform(tau, 25))},
	} {
		method := experiment.Method{
			Name:     tc.name,
			Strategy: experiment.Fig1,
			NewG:     func(*mcopt.Netlist) mcopt.G { return tc.g },
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x, _ := experiment.Run(suite, []experiment.Method{method}, []int64{1200}, experiment.Config{Seed: 1})
				b.ReportMetric(float64(x.Reduction(0, 0)), "reduction")
			}
		})
	}
}

// Benchmark_AblationRejectionless races [GREE84]'s rejectionless engine
// against the standard Figure-1 strategy in the regime [GREE84] targets:
// the state is already a local optimum and the temperature is cold, so
// Figure 1 rejects nearly every proposal while the rejectionless engine
// commits a weighted move every NeighborhoodSize+1 evaluations. The metric
// is the further reduction achieved beyond the local optima.
func Benchmark_AblationRejectionless(b *testing.B) {
	suite := ablationSuite()
	coldY := 0.4 // acceptance for Δ=1 ≈ 8%: cold but not frozen
	// Pre-descend every start to a pairwise-interchange local optimum.
	starts := make([]*mcopt.LinearSolution, suite.Size())
	for i := range starts {
		starts[i] = linarr.NewSolution(suite.Start(i), linarr.PairwiseInterchange)
		starts[i].Descend(mcopt.NewBudget(1 << 20))
	}
	run := func(mode string) int {
		total := 0
		for i := range starts {
			sol := starts[i].Clone().(*mcopt.LinearSolution)
			bud := mcopt.NewBudget(1200)
			r := mcopt.DeriveStream("bench/rejless", 1, uint64(i))
			var res mcopt.Result
			switch mode {
			case "figure1":
				res = mcopt.Figure1{G: gfunc.Metropolis(coldY)}.Run(sol, bud, r)
			case "honest":
				res = mcopt.Rejectionless{G: gfunc.Metropolis(coldY)}.Run(sol, bud, r)
			case "cached":
				res = mcopt.Rejectionless{G: gfunc.Metropolis(coldY), IdealizedCache: true}.Run(sol, bud, r)
			}
			total += int(res.Reduction())
		}
		return total
	}
	for _, mode := range []string{"figure1", "honest", "cached"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(float64(run(mode)), "reduction")
			}
		})
	}
}

// Benchmark_AblationPlateau measures the three readings of the paper's
// ambiguous Δ = 0 case (DESIGN.md): density objectives produce many plateau
// moves, so the policy is observable.
func Benchmark_AblationPlateau(b *testing.B) {
	suite := ablationSuite()
	builder, _ := gfunc.ByID(3) // g = 1
	methods := []experiment.Method{experiment.ClassMethod(builder, experiment.GOLAScale(), nil)}
	for _, tc := range []struct {
		name   string
		policy mcopt.PlateauPolicy
	}{
		{"accept", mcopt.PlateauAccept},
		{"acceptReset", mcopt.PlateauAcceptReset},
		{"reject", mcopt.PlateauReject},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x, _ := experiment.Run(suite, methods, []int64{1200},
					experiment.Config{Seed: 1, Plateau: tc.policy})
				b.ReportMetric(float64(x.Reduction(0, 0)), "reduction")
			}
		})
	}
}

// BenchmarkPMedian exercises the X2b location comparison at reduced scale
// (see cmd/locbench for the full version).
func BenchmarkPMedian(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, _ := experiment.PMedianComparison(1, 3, 25, 4, 5000, sched.Options{})
		if len(t.Rows) != 6 {
			b.Fatal("unexpected X2b shape")
		}
	}
}

// BenchmarkMaxCut exercises the X3 plugin-domain comparison at reduced
// scale (see olabench -table maxcut for the full version).
func BenchmarkMaxCut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, _ := experiment.MaxCutComparison(1, 3, 48, 144, 5000, sched.Options{})
		if len(t.Rows) != 7 {
			b.Fatal("unexpected X3 shape")
		}
	}
}

// BenchmarkMaxCutPropose measures the proposal the engines see: one op is
// a Solution.Propose — a random vertex and its O(degree) flip delta — read
// through Delta, on BenchmarkMaxCutFlip's instance. The move lives in the
// Solution, so a proposal allocates nothing.
func BenchmarkMaxCutPropose(b *testing.B) {
	g := maxcut.Random(mcopt.Stream("bench/maxcut", 1), 4096, 16384)
	s := maxcut.NewSolution(maxcut.RandomCut(g, mcopt.Stream("bench/maxcut-start", 1)))
	r := mcopt.Stream("bench/maxcut-propose", 1)
	var sum float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += s.Propose(r).Delta()
	}
	if math.IsNaN(sum) {
		b.Fatal("NaN delta")
	}
}

// BenchmarkMaxCutFlip measures the max-cut vertex-flip kernel: one op is
// one O(degree) delta evaluation plus the incremental bitset apply, on a
// sparse 4096-vertex ±1 instance (average degree 8).
func BenchmarkMaxCutFlip(b *testing.B) {
	g := maxcut.Random(mcopt.Stream("bench/maxcut", 1), 4096, 16384)
	c := maxcut.RandomCut(g, mcopt.Stream("bench/maxcut-start", 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Flip(i & 4095)
	}
	if c.Weight() < -int64(g.M()) {
		b.Fatal("impossible cut weight")
	}
}
