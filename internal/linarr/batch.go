package linarr

import (
	"fmt"
	"math/rand/v2"

	"mcopt/internal/core"
)

var _ core.BatchEvaluator = (*Solution)(nil)

// batchEval is the candidate log of the outstanding ProposeBatch: positions
// and both objective deltas, index-aligned with the deltas slice handed to
// ProposeBatch. It is allocated lazily on first use and reused for every
// later batch, so steady-state batched evaluation allocates nothing.
type batchEval struct {
	ps, qs []int
	dens   []int
	spans  []int
	seq    uint64 // arrangement seq the batch was drawn against
}

// ensure sizes the log for a batch of n candidates.
func (be *batchEval) ensure(n int) {
	if cap(be.ps) < n {
		be.ps = make([]int, n)
		be.qs = make([]int, n)
		be.dens = make([]int, n)
		be.spans = make([]int, n)
	}
	be.ps, be.qs = be.ps[:n], be.qs[:n]
	be.dens, be.spans = be.dens[:n], be.spans[:n]
}

// ProposeBatch draws len(deltas) candidate perturbations — the same
// (p, q) recipe, in the same order, as len(deltas) Propose calls — and
// evaluates each against the committed state through the serial evaluator,
// settling after the last. See core.BatchEvaluator.
func (s *Solution) ProposeBatch(r *rand.Rand, deltas []float64) {
	a := s.arr
	if a.batch == nil {
		a.batch = &batchEval{}
	}
	be := a.batch
	be.ensure(len(deltas))
	for i := range deltas {
		p, q := s.draw(r)
		m := s.eval(p, q)
		be.ps[i], be.qs[i] = p, q
		be.dens[i], be.spans[i] = m.DensityDelta(), m.SpanDelta()
		deltas[i] = m.Delta()
	}
	// The last candidate's move must not outlive its rolled-back proposal.
	a.settle()
	a.seq++
	be.seq = a.seq
}

// ApplyBatch commits candidate i of the outstanding batch by re-evaluating
// it (one extra evaluation per accepted move) and applying; the
// arrangement's seq then invalidates the batch.
func (s *Solution) ApplyBatch(i int) {
	a := s.arr
	be := a.batch
	if be == nil || be.seq != a.seq {
		panic("linarr: ApplyBatch on a stale batch")
	}
	if i < 0 || i >= len(be.ps) {
		panic(fmt.Sprintf("linarr: ApplyBatch(%d) outside batch of %d", i, len(be.ps)))
	}
	m := s.eval(be.ps[i], be.qs[i])
	if m.DensityDelta() != be.dens[i] || m.SpanDelta() != be.spans[i] {
		panic(fmt.Sprintf("linarr: ApplyBatch(%d): batched deltas (%d,%d) != re-evaluated (%d,%d)",
			i, be.dens[i], be.spans[i], m.DensityDelta(), m.SpanDelta()))
	}
	m.Apply()
}
