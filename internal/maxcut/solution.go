package maxcut

import (
	"math/rand/v2"

	"mcopt/problem"
)

// Solution adapts a Cut to the engines. The engines minimize, so the cost
// is PositiveWeight − Weight: a nonnegative gap to the (unreachable in
// general) all-positive-edges-cut bound, with maximizing the cut and
// minimizing the cost the same search. The perturbation class is a uniform
// random vertex flip.
//
// The adapter implements every optional engine capability — Descender
// (Figure 2), Enumerable (Rejectionless), and BatchEvaluator (batched
// Figure 1 / tempering) — each falling out of the O(degree) flip delta.
type Solution struct {
	c *Cut
	// mv is the storage behind the move Propose and EvalNeighbor return;
	// the next proposal overwrites it, which the Move contract allows.
	mv flipMove
	// batch is the most recent DrawBatch's candidate vertices; valid
	// while batchOK and the cut has not mutated since batchSeq.
	batch    []int32
	batchSeq uint64
	batchOK  bool
}

var (
	_ problem.Solution       = (*Solution)(nil)
	_ problem.Descender      = (*Solution)(nil)
	_ problem.Enumerable     = (*Solution)(nil)
	_ problem.BatchEvaluator = (*Solution)(nil)
)

// NewSolution wraps the cut. The Solution owns it from this point.
func NewSolution(c *Cut) *Solution { return &Solution{c: c} }

// Cut exposes the underlying state, e.g. to read the final sides.
func (s *Solution) Cut() *Cut { return s.c }

// Cost returns PositiveWeight − Weight (≥ 0; zero iff every positive edge
// crosses and no negative edge does).
func (s *Solution) Cost() float64 { return float64(s.c.g.posW - s.c.w) }

// CutWeight returns the current cut weight as an exact integer.
func (s *Solution) CutWeight() int64 { return s.c.w }

// flipMove is a proposed, not-yet-applied vertex flip.
type flipMove struct {
	c *Cut
	v int
	// deltaCut is the cut-weight gain; the engine-facing cost delta is its
	// negation.
	deltaCut int64
	seq      uint64
}

func (m *flipMove) Delta() float64 { return float64(-m.deltaCut) }

func (m *flipMove) Apply() {
	if m.seq != m.c.seq {
		panic("maxcut: Apply on a stale flip move")
	}
	m.c.Flip(m.v)
}

// Propose draws a uniform random vertex flip.
func (s *Solution) Propose(r *rand.Rand) problem.Move {
	return s.eval(r.IntN(s.c.g.n))
}

// eval evaluates the flip of vertex v into the solution's move storage.
func (s *Solution) eval(v int) *flipMove {
	s.batchOK = false
	s.mv = flipMove{c: s.c, v: v, deltaCut: s.c.FlipDelta(v), seq: s.c.seq}
	return &s.mv
}

// Clone returns a deep copy.
func (s *Solution) Clone() problem.Solution { return &Solution{c: s.c.Clone()} }

// Descend flips any cut-improving vertex in first-improvement sweeps until
// the assignment is 1-flip optimal, charging one budget unit per evaluated
// flip. It returns false if the budget died before a local optimum was
// certified.
func (s *Solution) Descend(budget *problem.Budget) bool {
	s.batchOK = false
	c := s.c
	for {
		improved := false
		for v := 0; v < c.g.n; v++ {
			if !budget.TrySpend() {
				return false
			}
			if c.FlipDelta(v) > 0 {
				c.Flip(v)
				improved = true
			}
		}
		if !improved {
			return true
		}
	}
}

// NeighborhoodSize returns the number of distinct flips: one per vertex.
func (s *Solution) NeighborhoodSize() int { return s.c.g.n }

// EvalNeighbor evaluates the flip of vertex idx.
func (s *Solution) EvalNeighbor(idx int) problem.Move {
	if idx < 0 || idx >= s.c.g.n {
		panic("maxcut: EvalNeighbor index out of range")
	}
	return s.eval(idx)
}

// DrawBatch draws n candidate flips — the same draw recipe, in the same
// order, as that many consecutive Propose calls — without evaluating them.
func (s *Solution) DrawBatch(r *rand.Rand, n int) {
	if cap(s.batch) < n {
		s.batch = make([]int32, n)
	}
	s.batch = s.batch[:n]
	for i := range s.batch {
		s.batch[i] = int32(r.IntN(s.c.g.n))
	}
	s.batchSeq = s.c.seq
	s.batchOK = true
}

// EvalBatch returns candidate i's cost change against the committed state.
func (s *Solution) EvalBatch(i int) float64 {
	return float64(-s.c.FlipDelta(s.batchVertex("EvalBatch", i)))
}

// ProposeBatch draws len(deltas) candidate flips and evaluates every one.
func (s *Solution) ProposeBatch(r *rand.Rand, deltas []float64) {
	s.DrawBatch(r, len(deltas))
	for i := range deltas {
		deltas[i] = s.EvalBatch(i)
	}
}

// ApplyBatch commits candidate i of the most recent DrawBatch and
// invalidates the rest of the block.
func (s *Solution) ApplyBatch(i int) {
	v := s.batchVertex("ApplyBatch", i)
	s.batchOK = false
	s.c.Flip(v)
}

// batchVertex returns candidate i's vertex, panicking if the block is
// stale or i is outside it.
func (s *Solution) batchVertex(op string, i int) int {
	if !s.batchOK || s.batchSeq != s.c.seq {
		panic("maxcut: " + op + " on a stale batch")
	}
	if i < 0 || i >= len(s.batch) {
		panic("maxcut: " + op + " index out of range")
	}
	return int(s.batch[i])
}
