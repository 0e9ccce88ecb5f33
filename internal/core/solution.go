// Package core implements the paper's two Monte Carlo search strategies —
// Figure 1 (perturb/accept) and Figure 2 (descend to a local optimum, then
// attempt an uphill jump) — over a problem-agnostic Solution interface.
//
// The engines are deliberately generic: the paper applies the same twenty
// acceptance-function classes to linear arrangement, circuit partitioning and
// the traveling salesperson problem, and this package is the single
// implementation all of those share.
package core

import "math/rand/v2"

// Solution is a mutable candidate solution to a minimization problem. The
// engines mutate one Solution in place and keep the best state seen as a
// Clone.
type Solution interface {
	// Cost returns the objective value h(i) of the current state. Problems
	// with integral objectives (densities, cut sizes) widen to float64 at
	// this boundary only.
	Cost() float64

	// Propose draws a random perturbation of the current state. The move is
	// NOT applied; the caller inspects Delta and either calls Apply exactly
	// once or drops the move. A move is invalidated by any subsequent call
	// to Propose, EvalNeighbor, Apply, or Descend on the same Solution, so
	// implementations should return moves stored in the Solution itself and
	// overwritten by the next proposal: an engine proposes once per budget
	// unit, and a move allocated per proposal costs an allocation per unit.
	// Clone must not share that storage.
	Propose(r *rand.Rand) Move

	// Clone returns a deep copy sharing no mutable state with the receiver.
	Clone() Solution
}

// Move is a proposed perturbation of a Solution.
type Move interface {
	// Delta returns h(j) − h(i): the cost change the move would cause.
	Delta() float64

	// Apply commits the move to the Solution that proposed it.
	Apply()
}

// Descender extends Solution with deterministic local search, required by
// the Figure-2 strategy ("Continue to perturb i until no perturbation
// results in a decrease in h").
type Descender interface {
	Solution

	// Descend runs improving passes until the state is locally optimal with
	// respect to the problem's perturbation class, charging one budget unit
	// per evaluated perturbation. It returns false if the budget was
	// exhausted before a local optimum was certified.
	Descend(b *Budget) bool
}

// G is an acceptance-function class from §3 of the paper: a family of k
// functions g_temp(h(i), h(j)) giving the probability of accepting an uphill
// move at temperature level temp. Implementations live in package gfunc.
type G interface {
	// Name is the paper's row label, e.g. "Six Temperature Annealing".
	Name() string

	// K is the number of temperature levels (the paper's k).
	K() int

	// Prob returns the acceptance probability for an uphill move from cost
	// hi to cost hj (hj > hi) at 1-based level temp. Values outside [0, 1]
	// are clamped by the engines.
	Prob(temp int, hi, hj float64) float64

	// Gate returns the consecutive-uphill threshold for the paper's special
	// g = 1 implementation under Figure 1 (18 in the paper), or 0 for
	// ordinary probabilistic acceptance. When Gate is nonzero the Figure-1
	// engine accepts an uphill move only after Gate consecutive uphill
	// proposals have accumulated, then resets the count to 1 (§3).
	Gate() int
}
