package experiment

import (
	"context"
	"fmt"

	"mcopt/internal/checkpoint"
	"mcopt/internal/core"
	"mcopt/internal/linarr"
	"mcopt/internal/metrics"
	"mcopt/internal/rng"
	"mcopt/internal/sched"
)

// Config carries the run-wide knobs shared by every cell of a table.
type Config struct {
	// Seed drives both suite-independent randomness and per-cell streams.
	Seed uint64
	// MoveKind selects the perturbation class (default pairwise
	// interchange, as in every experiment of the paper).
	MoveKind linarr.MoveKind
	// Plateau selects the Figure-1 zero-delta policy.
	Plateau core.PlateauPolicy
	// N is the engines' counter threshold (0 = budget-split clock only).
	N int
	// Engine selects the engine behind Figure-1 methods: "" or "fig1" is
	// the serial walk, "tempering" the replica-exchange engine (Chains
	// coupled chains exchanging every ExchangeEvery moves). Figure-2
	// methods are unaffected.
	Engine string
	// Chains and ExchangeEvery configure the tempering engine (0 = the
	// engine defaults: 4 chains, 256 moves).
	Chains        int
	ExchangeEvery int64
	// Batch, when > 1, draws proposals in blocks of Batch on solutions
	// that support it (a distinct deterministic trajectory; see
	// core.Figure1.Batch).
	Batch int
	// Sequential forces a single worker, for deterministic profiling.
	// Equivalent to Exec.Workers = 1; kept for the CLIs' -seq flag.
	Sequential bool
	// Exec carries the execution-layer knobs — worker count, cancellation
	// context, progress callback. The zero value runs on all cores with no
	// cancellation. Output is byte-identical for every worker count.
	Exec sched.Options
	// Telemetry, when non-nil, collects per-cell run metrics and (if its
	// Events writer is set) a JSONL event stream. Cells buffer privately and
	// flush in sorted order after the run, so output is byte-identical
	// whether cells ran sequentially or in parallel.
	Telemetry *Telemetry
}

// exec resolves the effective scheduler options.
func (c Config) exec() sched.Options {
	o := c.Exec
	if c.Sequential {
		o.Workers = 1
	}
	return o
}

// Matrix holds the raw measurements behind a table: one cell per
// (method, budget, instance).
type Matrix struct {
	SuiteName   string
	MethodNames []string
	Budgets     []int64
	// BestDensities[m][b][i] is the best density method m found on
	// instance i within budget b.
	BestDensities [][][]int
	// StartDensities[i] is instance i's starting density.
	StartDensities []int
}

// StartSum returns the suite's total starting density.
func (x *Matrix) StartSum() int {
	total := 0
	for _, d := range x.StartDensities {
		total += d
	}
	return total
}

// Reduction returns the total density reduction of method m at budget b —
// the quantity the paper's tables report.
func (x *Matrix) Reduction(m, b int) int {
	total := 0
	for i, d := range x.BestDensities[m][b] {
		total += x.StartDensities[i] - d
	}
	return total
}

// Reductions returns the per-budget reduction row for method m.
func (x *Matrix) Reductions(m int) []int {
	out := make([]int, len(x.Budgets))
	for b := range out {
		out[b] = x.Reduction(m, b)
	}
	return out
}

// Run evaluates every method at every budget on every suite instance,
// returning the full measurement matrix. Cells are independent: each runs
// from the suite's fixed starting arrangement with its own derived random
// stream, so the matrix is byte-identical regardless of scheduling.
//
// The grid executes on the shared scheduler (internal/sched). On
// cancellation the matrix is still returned: cells that never ran keep
// their starting density (zero reduction), so partial tables stay
// meaningful. The error, when non-nil, reports the interruption or any
// cell panic; sibling cells are unaffected by a crashing one.
func Run(suite *Suite, methods []Method, budgets []int64, cfg Config) (*Matrix, error) {
	x := &Matrix{
		SuiteName:      suite.Name,
		MethodNames:    make([]string, len(methods)),
		Budgets:        budgets,
		BestDensities:  make([][][]int, len(methods)),
		StartDensities: suite.StartDensities(),
	}
	// The per-cell RNG stream label depends only on (method, budget), so it
	// is built once per row here rather than once per cell in runCell.
	labels := make([][]string, len(methods))
	for m, meth := range methods {
		x.MethodNames[m] = meth.Name
		x.BestDensities[m] = make([][]int, len(budgets))
		labels[m] = make([]string, len(budgets))
		for b, budget := range budgets {
			labels[m][b] = fmt.Sprintf("run/%s/%s/%s/%d", suite.Name, meth.Name, meth.Strategy, budget)
			row := make([]int, suite.Size())
			// Prefill with the starting densities: a cell skipped by
			// cancellation reads as "no reduction", not as a bogus zero.
			copy(row, x.StartDensities)
			x.BestDensities[m][b] = row
		}
	}

	grid := sched.Grid3{A: len(methods), B: len(budgets), C: suite.Size()}
	exec := cfg.exec()
	jr, err := exec.Checkpoint.Journal("run-"+suite.Name, runFingerprint(suite, methods, budgets, cfg))
	if err != nil {
		return x, err
	}
	defer jr.Close()
	if err := jr.RestoreInt64(grid.N(), func(slot int, v int64) {
		m, b, i := grid.Split(slot)
		x.BestDensities[m][b][i] = int(v)
	}); err != nil {
		return x, err
	}
	if jr != nil {
		exec.Skip = jr.Done
	}
	rep := sched.Run(grid.N(), exec, func(ctx context.Context, j int) error {
		m, b, i := grid.Split(j)
		d := runCell(ctx, suite, cellKey{m, b, i}, methods[m], budgets[b], labels[m][b], cfg)
		x.BestDensities[m][b][i] = d
		return jr.AppendInt64(ctx, j, int64(d))
	})
	if cfg.Telemetry != nil {
		cfg.Telemetry.flush()
	}
	return x, rep.Err()
}

// runFingerprint keys the checkpoint journal to everything that shapes the
// matrix: the suite (name, size, and starting state), the method set with
// strategies, the budgets, and the run knobs. A journal written under any
// other parameters is rejected on resume instead of silently replayed.
func runFingerprint(suite *Suite, methods []Method, budgets []int64, cfg Config) uint64 {
	fields := []string{
		"experiment.Run", suite.Name,
		fmt.Sprint(suite.Size()), fmt.Sprint(suite.StartDensities()),
		fmt.Sprint(budgets),
		fmt.Sprint(cfg.Seed), fmt.Sprint(int(cfg.MoveKind)), fmt.Sprint(int(cfg.Plateau)), fmt.Sprint(cfg.N),
		cfg.Engine, fmt.Sprint(cfg.Chains), fmt.Sprint(cfg.ExchangeEvery), fmt.Sprint(cfg.Batch),
	}
	for _, m := range methods {
		fields = append(fields, m.Name, fmt.Sprint(int(m.Strategy)))
	}
	return checkpoint.Fingerprint(fields...)
}

// runCell runs one (method, budget, instance) cell and returns the best
// density found. label is the cell's RNG stream name, shared by its whole
// (method, budget) row.
func runCell(ctx context.Context, suite *Suite, k cellKey, m Method, budget int64, label string, cfg Config) int {
	inst := k.i
	sol := linarr.NewSolution(suite.Start(inst), cfg.MoveKind)
	g := m.NewG(suite.Netlists[inst])
	r := rng.Derive(label, cfg.Seed, uint64(inst))
	b := core.NewBudget(budget).WithContext(ctx)

	var hook core.Hook
	if tel := cfg.Telemetry; tel != nil {
		cell := tel.cell(k)
		cell.rm.BudgetLimit += budget
		hooks := []core.Hook{cell.rm.Hook()}
		if tel.Events != nil {
			ew := metrics.NewEventWriter(&cell.buf, runLabel(suite, m, budget, inst, cfg.Seed))
			hooks = append(hooks, ew.Hook())
		}
		hook = metrics.Tee(hooks...)
	}

	var res core.Result
	switch m.Strategy {
	case Fig1:
		if cfg.Engine == "tempering" {
			// Workers: 1 — the suite grid is already the parallel unit here;
			// the engine's own worker pool is for single-job deployments.
			// Results are byte-identical either way.
			res = core.Tempering{
				G: g, Chains: cfg.Chains, ExchangeEvery: cfg.ExchangeEvery,
				Batch: cfg.Batch, Workers: 1, Plateau: cfg.Plateau, Hook: hook,
			}.Run(sol, b, r)
		} else {
			res = core.Figure1{G: g, N: cfg.N, Plateau: cfg.Plateau, Batch: cfg.Batch, Hook: hook}.Run(sol, b, r)
		}
	case Fig2:
		res = core.Figure2{G: g, N: cfg.N, Hook: hook}.Run(sol, b, r)
	default:
		panic(fmt.Sprintf("experiment: unknown strategy %d", int(m.Strategy)))
	}
	return int(res.BestCost)
}
