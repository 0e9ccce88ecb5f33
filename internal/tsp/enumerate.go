package tsp

import "mcopt/internal/core"

// Enumerable support for the rejectionless strategy of [GREE84]. Move
// indices depend only on the city count, so the index tables are cached on
// the tour and survive applies.

var _ core.Enumerable = (*Tour)(nil)

// NeighborhoodSize returns the number of distinct moves of the configured
// class: n(n−3)/2 non-degenerate 2-opt pairs, or the count of legal or-opt
// (segment, insertion) triples.
func (t *Tour) NeighborhoodSize() int {
	t.buildMoveIndex()
	if t.moveKind == OrOpt {
		return len(t.orOptIndex)
	}
	return len(t.twoOptIndex)
}

// EvalNeighbor evaluates the idx-th move of the configured class.
func (t *Tour) EvalNeighbor(idx int) core.Move {
	t.buildMoveIndex()
	if t.moveKind == OrOpt {
		if idx < 0 || idx >= len(t.orOptIndex) {
			panic("tsp: EvalNeighbor index out of range")
		}
		m := t.orOptIndex[idx]
		return t.evalOrOpt(m[0], m[1], m[2])
	}
	if idx < 0 || idx >= len(t.twoOptIndex) {
		panic("tsp: EvalNeighbor index out of range")
	}
	m := t.twoOptIndex[idx]
	return t.evalTwoOpt(m[0], m[1])
}

// buildMoveIndex lazily fills the static move tables.
func (t *Tour) buildMoveIndex() {
	n := len(t.order)
	if t.moveKind == OrOpt {
		if t.orOptIndex != nil {
			return
		}
		maxL := min(3, n-2)
		t.orOptIndex = [][3]int{}
		for l := 1; l <= maxL; l++ {
			for i := 0; i+l <= n; i++ {
				for j := 0; j < n; j++ {
					if t.orOptLegal(i, l, j) {
						t.orOptIndex = append(t.orOptIndex, [3]int{i, l, j})
					}
				}
			}
		}
		return
	}
	if t.twoOptIndex != nil {
		return
	}
	t.twoOptIndex = [][2]int{}
	for i := 0; i < n-1; i++ {
		for j := i + 2; j < n; j++ {
			if i == 0 && j == n-1 {
				continue
			}
			t.twoOptIndex = append(t.twoOptIndex, [2]int{i, j})
		}
	}
}
