// Package sched is the repository's unified execution layer: a generic,
// problem-agnostic cell scheduler shared by every run surface (the paper
// tables, the size sweep, the X-table comparisons, replications, and the
// §4.2.1 tuner).
//
// The paper's evaluation is a grid of independent (method, budget, instance)
// cells, and every experiment in this repo has that shape. Run executes such
// a grid on a bounded worker pool with three guarantees:
//
//   - Determinism: cells are identified by a dense index and write their
//     results into caller-owned, index-addressed slots. As long as each cell
//     is a pure function of its index (per-index derived RNG streams, no
//     shared mutable state), the output is byte-identical for any worker
//     count, including Workers = 1.
//   - Failure isolation: a panicking cell is captured as a per-cell error
//     (with its stack) instead of killing the whole sweep; sibling cells
//     complete normally.
//   - Prompt cancellation: once the context is cancelled no new cell starts,
//     and in-flight cells can observe the same context through
//     core.Budget.WithContext to stop mid-run. Completed slots remain valid,
//     so callers can flush partial tables instead of losing them.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"mcopt/internal/checkpoint"
	"mcopt/internal/faultinject"
)

// Options carries the execution knobs every run surface shares. The zero
// value runs on all cores with no cancellation and no progress reporting.
type Options struct {
	// Workers bounds the pool size: 0 (or negative) uses GOMAXPROCS, 1 runs
	// the cells sequentially in the calling goroutine (deterministic
	// profiling, no scheduler noise).
	Workers int
	// Ctx, when non-nil, cancels the run: unstarted cells are skipped and the
	// report records the interruption. Cells receive this context and should
	// thread it into their Budget so in-flight work stops promptly too.
	Ctx context.Context
	// Progress, when non-nil, is called after each cell finishes with the
	// number of cells attempted so far and the total. Calls are serialized,
	// and done increases by one per call.
	Progress func(done, total int)
	// Checkpoint, when non-nil, makes runs durable: each run surface opens a
	// fingerprinted write-ahead journal beneath Checkpoint.Dir, appends one
	// record per completed cell, and on resume restores recorded slots and
	// marks them via Skip. The scheduler itself never touches the journal —
	// the field rides here because Options is the one bag of execution knobs
	// every surface already threads through.
	Checkpoint *checkpoint.Config
	// Skip, when non-nil, reports that cell i is already complete (restored
	// from a checkpoint journal). Skipped cells are marked completed without
	// running, so partial-table logic treats restored and freshly-computed
	// slots identically.
	Skip func(i int) bool
}

// PanicError wraps a recovered cell panic.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// CellError records one failed cell.
type CellError struct {
	Index int
	Err   error
}

// Error implements the error interface.
func (e *CellError) Error() string { return fmt.Sprintf("cell %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying cell failure to errors.Is / errors.As.
func (e *CellError) Unwrap() error { return e.Err }

// Report is the outcome of a scheduled grid: which cells completed, which
// failed, and whether the run was interrupted.
type Report struct {
	// Total is the grid size passed to Run.
	Total int
	// completed[i] is true when cell i ran to completion without error.
	completed []bool
	// errs[i] is cell i's error (a *PanicError for captured panics).
	errs []error
	// ctxErr is the context error when the run was cancelled mid-grid.
	ctxErr error
}

// Completed reports whether cell i ran to completion without error; false
// for skipped (cancelled) and failed cells.
func (r *Report) Completed(i int) bool { return r.completed[i] }

// NumCompleted counts the cells that ran to completion without error.
func (r *Report) NumCompleted() int {
	n := 0
	for _, ok := range r.completed {
		if ok {
			n++
		}
	}
	return n
}

// Interrupted reports whether the context was cancelled before every cell
// was attempted.
func (r *Report) Interrupted() bool { return r.ctxErr != nil }

// CellErrors returns every failed cell in index order.
func (r *Report) CellErrors() []*CellError {
	var out []*CellError
	for i, err := range r.errs {
		if err != nil {
			out = append(out, &CellError{Index: i, Err: err})
		}
	}
	return out
}

// Err summarizes the run: nil when every cell completed without error.
// Cancellation errors wrap the context error, so errors.Is(err,
// context.Canceled) and errors.Is(err, context.DeadlineExceeded) work.
func (r *Report) Err() error {
	cellErrs := r.CellErrors()
	switch {
	case len(cellErrs) > 0 && r.ctxErr != nil:
		return fmt.Errorf("sched: %d of %d cells failed (first: %w); interrupted: %v",
			len(cellErrs), r.Total, cellErrs[0], r.ctxErr)
	case len(cellErrs) > 0:
		return fmt.Errorf("sched: %d of %d cells failed: %w", len(cellErrs), r.Total, cellErrs[0])
	case r.ctxErr != nil:
		return fmt.Errorf("sched: interrupted after %d of %d cells: %w",
			r.NumCompleted(), r.Total, r.ctxErr)
	}
	return nil
}

// Run executes fn(ctx, i) for every i in [0, n) on a bounded worker pool.
// fn must treat i as its only input and write any result into an
// index-addressed slot it owns; under that contract the outcome is identical
// for every worker count. Run returns once every attempted cell has
// finished; it never leaks goroutines.
func Run(n int, o Options, fn func(ctx context.Context, i int) error) *Report {
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	r := &Report{Total: n, completed: make([]bool, n), errs: make([]error, n)}
	if n == 0 {
		return r
	}
	workers := min(max(o.Workers, 0), n)
	if workers == 0 {
		workers = min(runtime.GOMAXPROCS(0), n)
	}

	var next, done atomic.Int64
	var progressMu sync.Mutex
	// finished counts a cell as attempted and reports it. The count is taken
	// under the progress lock, so Progress sees it strictly increasing.
	finished := func() {
		if o.Progress == nil {
			done.Add(1)
			return
		}
		progressMu.Lock()
		o.Progress(int(done.Add(1)), n)
		progressMu.Unlock()
	}
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if o.Skip != nil && o.Skip(i) {
				r.completed[i] = true
				finished()
				continue
			}
			err := protect(ctx, i, func(ctx context.Context, i int) error {
				if err := fn(ctx, i); err != nil {
					return err
				}
				// Crash-recovery tests hook cell completion here (panic,
				// forced cancellation, hard exit at the Nth cell). Inside
				// protect, so an injected panic exercises the same isolation
				// path a real cell panic would.
				return faultinject.Point("sched.cell")
			})
			r.errs[i] = err
			r.completed[i] = err == nil
			finished()
		}
	}
	if workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	// A cancellation that lands after the last cell already ran is not an
	// interruption: every slot is filled.
	if int(done.Load()) < n {
		r.ctxErr = ctx.Err()
	}
	return r
}

// protect runs one cell, converting a panic into a *PanicError.
func protect(ctx context.Context, i int, fn func(context.Context, int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

// Grid2 maps a dense (a, b) cell space onto flat scheduler indices, with a
// the slow axis — indices enumerate b fastest, matching nested-loop order.
type Grid2 struct{ A, B int }

// N returns the grid size.
func (g Grid2) N() int { return g.A * g.B }

// Index returns the flat index of cell (a, b).
func (g Grid2) Index(a, b int) int { return a*g.B + b }

// Split decodes a flat index into (a, b).
func (g Grid2) Split(i int) (a, b int) { return i / g.B, i % g.B }

// Grid3 maps a dense (a, b, c) cell space onto flat scheduler indices, with
// a the slowest axis.
type Grid3 struct{ A, B, C int }

// N returns the grid size.
func (g Grid3) N() int { return g.A * g.B * g.C }

// Index returns the flat index of cell (a, b, c).
func (g Grid3) Index(a, b, c int) int { return (a*g.B+b)*g.C + c }

// Split decodes a flat index into (a, b, c).
func (g Grid3) Split(i int) (a, b, c int) {
	a, rem := i/(g.B*g.C), i%(g.B*g.C)
	return a, rem / g.C, rem % g.C
}
