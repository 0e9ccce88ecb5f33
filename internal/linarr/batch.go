package linarr

import (
	"fmt"
	"math"
	"math/rand/v2"

	"mcopt/internal/core"
)

var _ core.BatchEvaluator = (*Solution)(nil)

// batchEval is the candidate log of the outstanding block: positions and
// both objective deltas of every candidate EvalBatch has evaluated
// (notEvaluated marks the others). It is allocated lazily on first use and
// reused for every later block, so steady-state batched evaluation
// allocates nothing.
type batchEval struct {
	ps, qs []int
	dens   []int
	spans  []int
	// seq is the arrangement seq the block is valid at: set by DrawBatch
	// and advanced past each EvalBatch's own evaluation, so any other
	// evaluation or commit makes the block stale.
	seq uint64
	// last is the candidate whose move is the arrangement's outstanding
	// proposal (−1 for none), and mv that move.
	last int
	mv   Move
}

// notEvaluated marks a candidate EvalBatch has not yet evaluated.
const notEvaluated = math.MinInt

// DrawBatch draws n candidate perturbations — the same (p, q) recipe, in
// the same order, as n Propose calls — without evaluating them. See
// core.BatchEvaluator.
func (s *Solution) DrawBatch(r *rand.Rand, n int) {
	a := s.arr
	if a.batch == nil {
		a.batch = &batchEval{}
	}
	be := a.batch
	if cap(be.ps) < n {
		be.ps, be.qs = make([]int, n), make([]int, n)
		be.dens, be.spans = make([]int, n), make([]int, n)
	}
	be.ps, be.qs = be.ps[:n], be.qs[:n]
	be.dens, be.spans = be.dens[:n], be.spans[:n]
	for i := range n {
		be.ps[i], be.qs[i] = s.draw(r)
		be.dens[i] = notEvaluated
	}
	// A serial move proposed before the block must not stay appliable.
	a.seq++
	be.seq, be.last, be.mv = a.seq, -1, nil
}

// EvalBatch evaluates candidate i of the outstanding block against the
// committed state through the serial evaluator; its move stays the
// outstanding proposal until the next evaluation.
func (s *Solution) EvalBatch(i int) float64 {
	a, be := s.arr, s.checkBatch("EvalBatch", i)
	m := s.eval(be.ps[i], be.qs[i])
	be.dens[i], be.spans[i] = m.DensityDelta(), m.SpanDelta()
	be.seq, be.last, be.mv = a.seq, i, m
	return m.Delta()
}

// ProposeBatch draws len(deltas) candidates and evaluates every one. See
// core.BatchEvaluator.
func (s *Solution) ProposeBatch(r *rand.Rand, deltas []float64) {
	s.DrawBatch(r, len(deltas))
	for i := range deltas {
		deltas[i] = s.EvalBatch(i)
	}
}

// ApplyBatch commits candidate i of the outstanding block. When i is the
// candidate EvalBatch evaluated last, its move is still the outstanding
// proposal and is applied as it stands; any other candidate is
// re-evaluated, checked against its logged deltas, and applied. The
// arrangement's seq then invalidates the block.
func (s *Solution) ApplyBatch(i int) {
	be := s.checkBatch("ApplyBatch", i)
	if i == be.last {
		be.mv.Apply()
		return
	}
	if be.dens[i] == notEvaluated {
		panic(fmt.Sprintf("linarr: ApplyBatch(%d) of a candidate EvalBatch has not evaluated", i))
	}
	m := s.eval(be.ps[i], be.qs[i])
	if m.DensityDelta() != be.dens[i] || m.SpanDelta() != be.spans[i] {
		panic(fmt.Sprintf("linarr: ApplyBatch(%d): batched deltas (%d,%d) != re-evaluated (%d,%d)",
			i, be.dens[i], be.spans[i], m.DensityDelta(), m.SpanDelta()))
	}
	m.Apply()
}

// checkBatch returns the outstanding block, panicking if it is stale or i
// is outside it.
func (s *Solution) checkBatch(op string, i int) *batchEval {
	a := s.arr
	be := a.batch
	if be == nil || be.seq != a.seq {
		panic("linarr: " + op + " on a stale batch")
	}
	if i < 0 || i >= len(be.ps) {
		panic(fmt.Sprintf("linarr: %s(%d) outside batch of %d", op, i, len(be.ps)))
	}
	return be
}
