package partition

import "mcopt/internal/core"

// Enumerable support: all cross-side swaps, for the rejectionless strategy
// of [GREE84].

var _ core.Enumerable = (*Solution)(nil)

// NeighborhoodSize returns the number of cross-side pair swaps.
func (s *Solution) NeighborhoodSize() int {
	return len(s.b.members[0]) * len(s.b.members[1])
}

// EvalNeighbor evaluates the idx-th cross-side swap (row-major over
// members[0] × members[1]).
func (s *Solution) EvalNeighbor(idx int) core.Move {
	s1 := len(s.b.members[1])
	if idx < 0 || s1 == 0 || idx >= s.NeighborhoodSize() {
		panic("partition: EvalNeighbor index out of range")
	}
	return s.eval(s.b.members[0][idx/s1], s.b.members[1][idx%s1])
}
