package tsp

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"mcopt/internal/core"
	"mcopt/internal/rng"
)

// Tour is a mutable cyclic tour over an instance's cities, maintaining its
// length incrementally under 2-opt moves. It implements core.Solution and
// core.Descender with the 2-opt perturbation class of [LIN73]/[GOLD84].
type Tour struct {
	inst     *Instance
	order    []int
	length   float64
	moveKind TourMoveKind
	seq      uint64
	// The storage behind the moves Propose and EvalNeighbor return; the
	// next proposal overwrites it, which the Move contract allows.
	twoOptMv twoOptMove
	orOptMv  orOptMove
	// Static move-index tables for Enumerable, built lazily.
	twoOptIndex [][2]int
	orOptIndex  [][3]int
}

var (
	_ core.Solution  = (*Tour)(nil)
	_ core.Descender = (*Tour)(nil)
)

// NewTour builds a tour visiting cities in the given order, which must be a
// permutation of 0..N-1.
func NewTour(inst *Instance, order []int) (*Tour, error) {
	if len(order) != inst.N() {
		return nil, fmt.Errorf("tsp: order has %d cities, instance has %d", len(order), inst.N())
	}
	seen := make([]bool, inst.N())
	for _, c := range order {
		if c < 0 || c >= inst.N() || seen[c] {
			return nil, fmt.Errorf("tsp: order is not a permutation (city %d)", c)
		}
		seen[c] = true
	}
	return &Tour{
		inst:   inst,
		order:  slices.Clone(order),
		length: inst.TourLength(order),
	}, nil
}

// MustNewTour is NewTour but panics on error.
func MustNewTour(inst *Instance, order []int) *Tour {
	t, err := NewTour(inst, order)
	if err != nil {
		panic(err)
	}
	return t
}

// RandomTour builds a uniformly random tour.
func RandomTour(inst *Instance, r *rand.Rand) *Tour {
	order := make([]int, inst.N())
	rng.Perm(r, order)
	return MustNewTour(inst, order)
}

// Order returns a copy of the current visiting order.
func (t *Tour) Order() []int { return slices.Clone(t.order) }

// Length returns the maintained tour length.
func (t *Tour) Length() float64 { return t.length }

// Cost implements core.Solution.
func (t *Tour) Cost() float64 { return t.length }

// Instance returns the underlying instance.
func (t *Tour) Instance() *Instance { return t.inst }

// Clone implements core.Solution.
func (t *Tour) Clone() core.Solution {
	return &Tour{inst: t.inst, order: slices.Clone(t.order), length: t.length, moveKind: t.moveKind}
}

// twoOptDelta returns the length change from the 2-opt move that removes
// edges (order[i], order[i+1]) and (order[j], order[j+1]) and reverses the
// segment order[i+1..j]. Requires 0 <= i < j < n and the edges distinct and
// non-adjacent in the cycle.
func (t *Tour) twoOptDelta(i, j int) float64 {
	n := len(t.order)
	a, b := t.order[i], t.order[i+1]
	c, d := t.order[j], t.order[(j+1)%n]
	return t.inst.Dist(a, c) + t.inst.Dist(b, d) - t.inst.Dist(a, b) - t.inst.Dist(c, d)
}

// applyTwoOpt commits the move evaluated by twoOptDelta.
func (t *Tour) applyTwoOpt(i, j int, delta float64) {
	for lo, hi := i+1, j; lo < hi; lo, hi = lo+1, hi-1 {
		t.order[lo], t.order[hi] = t.order[hi], t.order[lo]
	}
	t.length += delta
	t.seq++
}

// twoOptMove is a proposed, not-yet-applied 2-opt reversal.
type twoOptMove struct {
	t     *Tour
	i, j  int
	delta float64
	seq   uint64
}

func (m *twoOptMove) Delta() float64 { return m.delta }

func (m *twoOptMove) Apply() {
	if m.seq != m.t.seq {
		panic("tsp: Apply on a stale 2-opt move")
	}
	m.t.applyTwoOpt(m.i, m.j, m.delta)
}

// Propose draws a uniform random non-degenerate move of the configured
// class (2-opt by default).
func (t *Tour) Propose(r *rand.Rand) core.Move {
	if t.moveKind == OrOpt {
		return t.proposeOrOpt(r)
	}
	n := len(t.order)
	for {
		i := r.IntN(n)
		j := r.IntN(n)
		if i > j {
			i, j = j, i
		}
		// Reject identical or cyclically adjacent edges, whose "reversal"
		// is a no-op.
		if i == j || j == i+1 || (i == 0 && j == n-1) {
			continue
		}
		return t.evalTwoOpt(i, j)
	}
}

// evalTwoOpt evaluates the 2-opt move (i, j) into the tour's move storage.
func (t *Tour) evalTwoOpt(i, j int) *twoOptMove {
	t.twoOptMv = twoOptMove{t: t, i: i, j: j, delta: t.twoOptDelta(i, j), seq: t.seq}
	return &t.twoOptMv
}

// Descend performs first-improvement sweeps of the configured move class
// until no improving move remains (e.g. a "2-opt optimal" tour in [LIN73]'s
// sense), charging one budget unit per evaluated move. The float tolerance
// avoids cycling on numerically-zero improvements.
func (t *Tour) Descend(b *core.Budget) bool {
	if t.moveKind == OrOpt {
		return t.descendOrOpt(b)
	}
	const eps = 1e-12
	n := len(t.order)
	for {
		improved := false
		for i := 0; i < n-1; i++ {
			for j := i + 2; j < n; j++ {
				if i == 0 && j == n-1 {
					continue
				}
				if !b.TrySpend() {
					return false
				}
				if delta := t.twoOptDelta(i, j); delta < -eps {
					t.applyTwoOpt(i, j, delta)
					improved = true
				}
			}
		}
		if !improved {
			return true
		}
	}
}
