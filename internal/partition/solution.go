package partition

import (
	"math/rand/v2"

	"mcopt/internal/core"
)

// Solution adapts a Bipartition to core.Solution / core.Descender. The
// perturbation class is a uniform random cross-side pair swap, which
// preserves balance by construction.
type Solution struct {
	b *Bipartition
	// mv is the storage behind the move Propose and EvalNeighbor return;
	// the next proposal overwrites it, which the Move contract allows.
	mv swapMove
}

var (
	_ core.Solution  = (*Solution)(nil)
	_ core.Descender = (*Solution)(nil)
)

// NewSolution wraps the bipartition. The Solution owns it from this point.
func NewSolution(b *Bipartition) *Solution { return &Solution{b: b} }

// Bipartition exposes the underlying state, e.g. to read the final sides.
func (s *Solution) Bipartition() *Bipartition { return s.b }

// Cost returns the current cut size.
func (s *Solution) Cost() float64 { return float64(s.b.CutSize()) }

// CutSize returns the current cut size as an exact integer.
func (s *Solution) CutSize() int { return s.b.CutSize() }

// swapMove is a proposed, not-yet-applied cross-side pair swap.
type swapMove struct {
	b     *Bipartition
	a, c  int
	delta int
	seq   uint64
}

func (m *swapMove) Delta() float64 { return float64(m.delta) }

func (m *swapMove) Apply() {
	if m.seq != m.b.seq {
		panic("partition: Apply on a stale swap move")
	}
	m.b.Swap(m.a, m.c)
}

// Propose draws a uniform random cross-side swap.
func (s *Solution) Propose(r *rand.Rand) core.Move {
	b := s.b
	if len(b.members[0]) == 0 || len(b.members[1]) == 0 {
		// Degenerate one-cell instance: the only perturbation is identity;
		// engines will treat the zero delta as a plateau. Use a same-cell
		// "swap" marker that applies as a no-op.
		return &noopMove{}
	}
	a := b.members[0][r.IntN(len(b.members[0]))]
	c := b.members[1][r.IntN(len(b.members[1]))]
	return s.eval(a, c)
}

// eval evaluates swapping cells a and c into the solution's move storage.
func (s *Solution) eval(a, c int) *swapMove {
	s.mv = swapMove{b: s.b, a: a, c: c, delta: s.b.SwapDelta(a, c), seq: s.b.seq}
	return &s.mv
}

type noopMove struct{}

func (*noopMove) Delta() float64 { return 0 }
func (*noopMove) Apply()         {}

// Clone returns a deep copy.
func (s *Solution) Clone() core.Solution { return &Solution{b: s.b.Clone()} }

// Descend runs first-improvement sweeps over all cross-side pairs until no
// swap reduces the cut, charging one budget unit per evaluated pair.
func (s *Solution) Descend(budget *core.Budget) bool {
	b := s.b
	for {
		improved := false
		for i := 0; i < len(b.members[0]); i++ {
			for j := 0; j < len(b.members[1]); j++ {
				if !budget.TrySpend() {
					return false
				}
				a, c := b.members[0][i], b.members[1][j]
				if b.SwapDelta(a, c) < 0 {
					b.Swap(a, c)
					// The swap replaces members[0][i] with c and
					// members[1][j] with a; continuing the sweep from the
					// same indices is still a valid first-improvement scan.
					improved = true
				}
			}
		}
		if !improved {
			return true
		}
	}
}
