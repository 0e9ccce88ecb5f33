package tsp

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"mcopt/internal/core"
)

// TourMoveKind selects a tour perturbation class. The paper's §3 notes a
// perturbation "may, for example, be a pairwise exchange or may involve a
// random change in a single element"; for tours the analogous pair is 2-opt
// (edge exchange) and or-opt (segment relocation).
type TourMoveKind int

const (
	// TwoOpt removes two edges and reverses the intervening segment.
	TwoOpt TourMoveKind = iota
	// OrOpt relocates a segment of one to three consecutive cities to
	// another position, preserving its orientation.
	OrOpt
)

// String implements fmt.Stringer.
func (k TourMoveKind) String() string {
	switch k {
	case TwoOpt:
		return "2-opt"
	case OrOpt:
		return "or-opt"
	default:
		return "unknown"
	}
}

// WithMoveKind sets the perturbation class used by Propose and Descend and
// returns the tour for chaining. The default is TwoOpt.
func (t *Tour) WithMoveKind(k TourMoveKind) *Tour {
	if k != TwoOpt && k != OrOpt {
		panic(fmt.Sprintf("tsp: unknown move kind %d", int(k)))
	}
	t.moveKind = k
	return t
}

// MoveKind reports the tour's configured perturbation class.
func (t *Tour) MoveKind() TourMoveKind { return t.moveKind }

// orOptDelta returns the length change from relocating the L-city segment
// starting at position i to sit after position j (orientation preserved).
// Requires i+L <= n and j outside the closed position range [i-1, i+L-1]
// (mod n); the move is then well formed and non-degenerate.
func (t *Tour) orOptDelta(i, l, j int) float64 {
	n := len(t.order)
	a := t.order[(i-1+n)%n]
	s1 := t.order[i]
	sl := t.order[i+l-1]
	b := t.order[(i+l)%n]
	c := t.order[j]
	d := t.order[(j+1)%n]
	return t.inst.Dist(a, b) + t.inst.Dist(c, s1) + t.inst.Dist(sl, d) -
		t.inst.Dist(a, s1) - t.inst.Dist(sl, b) - t.inst.Dist(c, d)
}

// applyOrOpt commits the move evaluated by orOptDelta. Moving the segment
// past the cities between it and position j is a rotation of the window
// those cities and the segment span, done in place.
func (t *Tour) applyOrOpt(i, l, j int, delta float64) {
	if j > i {
		// order[i:i+l] moves behind order[i+l:j+1].
		rotateLeft(t.order[i:j+1], l)
	} else {
		// order[i:i+l] moves in front of order[j+1:i].
		rotateLeft(t.order[j+1:i+l], i-j-1)
	}
	t.length += delta
	t.seq++
}

// rotateLeft rotates s left by k positions in place.
func rotateLeft(s []int, k int) {
	slices.Reverse(s[:k])
	slices.Reverse(s[k:])
	slices.Reverse(s)
}

type orOptMove struct {
	t       *Tour
	i, l, j int
	delta   float64
	seq     uint64
}

func (m *orOptMove) Delta() float64 { return m.delta }

func (m *orOptMove) Apply() {
	if m.seq != m.t.seq {
		panic("tsp: Apply on a stale or-opt move")
	}
	m.t.applyOrOpt(m.i, m.l, m.j, m.delta)
}

// orOptLegal reports whether (i, l, j) denotes a well-formed, non-degenerate
// relocation: j must lie outside positions [i-1, i+l-1].
func (t *Tour) orOptLegal(i, l, j int) bool {
	n := len(t.order)
	if i < 0 || l < 1 || i+l > n || j < 0 || j >= n {
		return false
	}
	lo := (i - 1 + n) % n
	// Walk the forbidden range cyclically (l+1 positions starting at i-1).
	for k, pos := 0, lo; k < l+1; k, pos = k+1, (pos+1)%n {
		if j == pos {
			return false
		}
	}
	return true
}

// proposeOrOpt draws a uniform random legal or-opt move (segment length
// 1–3).
func (t *Tour) proposeOrOpt(r *rand.Rand) core.Move {
	n := len(t.order)
	maxL := min(3, n-2) // leave at least two cities outside the segment
	for {
		l := 1 + r.IntN(maxL)
		i := r.IntN(n - l + 1)
		j := r.IntN(n)
		if !t.orOptLegal(i, l, j) {
			continue
		}
		return t.evalOrOpt(i, l, j)
	}
}

// evalOrOpt evaluates the or-opt move (i, l, j) into the tour's move
// storage.
func (t *Tour) evalOrOpt(i, l, j int) *orOptMove {
	t.orOptMv = orOptMove{t: t, i: i, l: l, j: j, delta: t.orOptDelta(i, l, j), seq: t.seq}
	return &t.orOptMv
}

// descendOrOpt sweeps all (segment, insertion) pairs first-improvement
// until or-opt optimal.
func (t *Tour) descendOrOpt(b *core.Budget) bool {
	const eps = 1e-12
	n := len(t.order)
	maxL := min(3, n-2)
	for {
		improved := false
		for l := 1; l <= maxL; l++ {
			for i := 0; i+l <= n; i++ {
				for j := 0; j < n; j++ {
					if !t.orOptLegal(i, l, j) {
						continue
					}
					if !b.TrySpend() {
						return false
					}
					if delta := t.orOptDelta(i, l, j); delta < -eps {
						t.applyOrOpt(i, l, j, delta)
						improved = true
					}
				}
			}
		}
		if !improved {
			return true
		}
	}
}
