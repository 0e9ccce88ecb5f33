package linarr

import (
	"fmt"
	"math/rand/v2"

	"mcopt/internal/core"
)

// MoveKind selects the perturbation class used by Solution.
type MoveKind int

const (
	// PairwiseInterchange swaps the cells at two random positions — the
	// perturbation used for every table in the paper ("The solution for each
	// instance was obtained using pairwise interchange", §4.2.1).
	PairwiseInterchange MoveKind = iota

	// SingleExchange removes one cell and reinserts it at another position,
	// the alternative move class explored in [COHO83a].
	SingleExchange
)

// String implements fmt.Stringer.
func (k MoveKind) String() string {
	switch k {
	case PairwiseInterchange:
		return "pairwise-interchange"
	case SingleExchange:
		return "single-exchange"
	default:
		return "unknown"
	}
}

// Solution adapts an Arrangement to core.Solution and core.Descender,
// fixing a perturbation class. It is the state object handed to the
// Figure-1 and Figure-2 engines for GOLA and NOLA.
type Solution struct {
	arr  *Arrangement
	kind MoveKind
	obj  Objective
}

var (
	_ core.Solution  = (*Solution)(nil)
	_ core.Descender = (*Solution)(nil)
)

// NewSolution wraps the arrangement. The Solution owns the arrangement from
// this point; callers must not mutate it directly while an engine runs.
func NewSolution(a *Arrangement, kind MoveKind) *Solution {
	return NewSolutionFor(a, kind, Density)
}

// NewSolutionFor is NewSolution with an explicit objective (the paper's
// experiments all use Density; TotalSpan serves the [KANG83] wirelength
// formulation).
func NewSolutionFor(a *Arrangement, kind MoveKind, obj Objective) *Solution {
	if kind != PairwiseInterchange && kind != SingleExchange {
		panic(fmt.Sprintf("linarr: unknown move kind %d", int(kind)))
	}
	if obj != Density && obj != TotalSpan {
		panic(fmt.Sprintf("linarr: unknown objective %d", int(obj)))
	}
	return &Solution{arr: a, kind: kind, obj: obj}
}

// Arrangement exposes the underlying arrangement, e.g. to read the final
// order after a run.
func (s *Solution) Arrangement() *Arrangement { return s.arr }

// Cost returns the current objective value (density by default).
func (s *Solution) Cost() float64 {
	if s.obj == TotalSpan {
		return float64(s.arr.TotalSpan())
	}
	return float64(s.arr.Density())
}

// Density returns the current density as an exact integer.
func (s *Solution) Density() int { return s.arr.Density() }

// Propose draws a uniform random perturbation of the configured kind. The
// returned move is backed by per-arrangement storage: it stays valid until
// the next Propose / Descend / EvalNeighbor call on this solution, which is
// exactly the at-most-one-outstanding-move discipline the engines follow.
func (s *Solution) Propose(r *rand.Rand) core.Move {
	return s.eval(s.draw(r))
}

// draw picks the positions of a uniform random perturbation: an ordered
// pair of distinct positions. A single-cell instance draws nothing and
// returns (0, 0), the identity move the engines treat as a plateau.
func (s *Solution) draw(r *rand.Rand) (p, q int) {
	n := s.arr.NumCells()
	if n < 2 {
		return 0, 0
	}
	p = r.IntN(n)
	q = r.IntN(n - 1)
	if q >= p {
		q++
	}
	return p, q
}

// eval evaluates the configured perturbation at positions (p, q).
func (s *Solution) eval(p, q int) Move {
	if s.kind == SingleExchange {
		return s.arr.EvalReinsertFor(p, q, s.obj)
	}
	return s.arr.EvalSwapFor(p, q, s.obj)
}

// Clone returns a deep copy.
func (s *Solution) Clone() core.Solution {
	return &Solution{arr: s.arr.Clone(), kind: s.kind, obj: s.obj}
}

// Descend drives the arrangement to a local optimum of its move class by
// repeated first-improvement sweeps, charging one budget unit per
// candidate. It returns false if the budget ran out before a full sweep
// completed with no improvement (§ Figure 2, Step 2).
//
// Under the density objective a candidate is evaluated only if its window
// of changed gaps, [min(p,q), max(p,q)), covers every gap at the density:
// otherwise a gap outside the window keeps the density and the delta is
// ≥ 0. Such a candidate is charged but not evaluated, so the trajectory
// and the budget are those of evaluating every candidate.
func (s *Solution) Descend(b *core.Budget) bool {
	a := s.arr
	n := a.NumCells()
	if n < 2 {
		return true
	}
	lo, hi := s.peak()
	for {
		improved := false
		if s.kind == SingleExchange {
			for p := 0; p < n; p++ {
				for q := 0; q < n; q++ {
					if p == q {
						continue
					}
					if !b.TrySpend() {
						return false
					}
					if min(p, q) > lo || max(p, q) <= hi {
						continue
					}
					if m := a.EvalReinsertFor(p, q, s.obj); m.DeltaInt() < 0 {
						m.Apply()
						improved = true
						lo, hi = s.peak()
					}
				}
			}
		} else {
			for p := 0; p < n-1; p++ {
				for q := p + 1; q < n; q++ {
					if !b.TrySpend() {
						return false
					}
					if p > lo || q <= hi {
						continue
					}
					if m := a.EvalSwapFor(p, q, s.obj); m.DeltaInt() < 0 {
						m.Apply()
						improved = true
						lo, hi = s.peak()
					}
				}
			}
		}
		if !improved {
			return true
		}
	}
}

// peak returns the bounds Descend's windows must cover to be evaluated:
// under the density objective the lowest and highest gaps at the density,
// read from the committed counts; under TotalSpan, where any move may
// improve, bounds every window covers.
func (s *Solution) peak() (lo, hi int) {
	if s.obj != Density {
		return s.arr.NumCells(), -1
	}
	cut, d := s.arr.tree.cut, s.arr.dens
	lo, hi = -1, -1
	for g, c := range cut {
		if c == d {
			if lo < 0 {
				lo = g
			}
			hi = g
		}
	}
	return lo, hi
}
