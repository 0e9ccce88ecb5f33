package pmedian

import (
	"math/rand/v2"

	"mcopt/internal/core"
)

// Solution adapts a median set to core.Solution / core.Descender /
// core.Enumerable with the vertex-substitution move: swap one open median
// for one closed site.
type Solution struct {
	m *Medians
	// mv is the storage behind the move Propose and EvalNeighbor return;
	// the next proposal overwrites it, which the Move contract allows.
	mv swapMove
	// closed and sweep are scratch for closedSites and for a Descend
	// sweep's snapshot of the median set.
	closed, sweep []int
}

var (
	_ core.Solution   = (*Solution)(nil)
	_ core.Descender  = (*Solution)(nil)
	_ core.Enumerable = (*Solution)(nil)
)

// NewSolution wraps the median set; the Solution owns it from this point.
func NewSolution(m *Medians) *Solution { return &Solution{m: m} }

// Medians exposes the underlying state.
func (s *Solution) Medians() *Medians { return s.m }

// Cost implements core.Solution.
func (s *Solution) Cost() float64 { return s.m.Cost() }

// swapMove is a proposed, not-yet-applied vertex substitution.
type swapMove struct {
	m       *Medians
	out, in int
	delta   float64
	seq     uint64
}

func (mv *swapMove) Delta() float64 { return mv.delta }

func (mv *swapMove) Apply() {
	if mv.seq != mv.m.seq {
		panic("pmedian: Apply on a stale swap move")
	}
	mv.m.Swap(mv.out, mv.in)
}

// Propose draws a uniform random (open, closed) substitution.
func (s *Solution) Propose(r *rand.Rand) core.Move {
	m := s.m
	out := m.chosen[r.IntN(len(m.chosen))]
	in := out
	for m.open[in] {
		in = r.IntN(m.inst.N())
	}
	return s.eval(out, in)
}

// eval evaluates substituting site in for median out into the solution's
// move storage.
func (s *Solution) eval(out, in int) *swapMove {
	s.mv = swapMove{m: s.m, out: out, in: in, delta: s.m.SwapDelta(out, in), seq: s.m.seq}
	return &s.mv
}

// Clone implements core.Solution.
func (s *Solution) Clone() core.Solution { return &Solution{m: s.m.Clone()} }

// closedSites lists the sites without a median, in ascending order, in
// the solution's scratch; the next call overwrites it.
func (s *Solution) closedSites() []int {
	s.closed = s.closed[:0]
	for site, open := range s.m.open {
		if !open {
			s.closed = append(s.closed, site)
		}
	}
	return s.closed
}

// Descend runs Teitz–Bart-style first-improvement interchange sweeps until
// no substitution reduces the cost, charging one budget unit per evaluated
// swap.
func (s *Solution) Descend(b *core.Budget) bool {
	const eps = 1e-12
	for {
		improved := false
		s.sweep = append(s.sweep[:0], s.m.chosen...)
		for _, out := range s.sweep {
			if !s.m.open[out] {
				continue // replaced earlier in this sweep
			}
			for in := 0; in < s.m.inst.N(); in++ {
				if s.m.open[in] {
					continue
				}
				if !b.TrySpend() {
					return false
				}
				if s.m.SwapDelta(out, in) < -eps {
					s.m.Swap(out, in)
					improved = true
					break // `out` is gone; move to the next median
				}
			}
		}
		if !improved {
			return true
		}
	}
}

// NeighborhoodSize returns p·(n−p) substitutions.
func (s *Solution) NeighborhoodSize() int {
	n, p := s.m.inst.N(), s.m.inst.p
	return p * (n - p)
}

// EvalNeighbor evaluates the idx-th substitution (row-major over chosen ×
// closed sites).
func (s *Solution) EvalNeighbor(idx int) core.Move {
	closed := s.closedSites()
	if idx < 0 || len(closed) == 0 || idx >= len(s.m.chosen)*len(closed) {
		panic("pmedian: EvalNeighbor index out of range")
	}
	return s.eval(s.m.chosen[idx/len(closed)], closed[idx%len(closed)])
}

// Greedy builds a median set by repeatedly opening the site that most
// reduces the total assignment distance — the classic construction
// baseline. Each candidate evaluation charges one budget unit; on budget
// death the remaining medians are filled with the lowest-index closed
// sites so the result is always a valid set.
func Greedy(inst *Instance, b *core.Budget) []int {
	n := inst.N()
	chosen := []int{}
	open := make([]bool, n)
	d1 := make([]float64, n)
	for i := range d1 {
		d1[i] = 1e18 // effectively infinite before the first median opens
	}
	for len(chosen) < inst.p {
		best, bestGain := -1, 0.0
		for cand := 0; cand < n; cand++ {
			if open[cand] {
				continue
			}
			if !b.TrySpend() {
				// Budget died: fill deterministically and return.
				for site := 0; site < n && len(chosen) < inst.p; site++ {
					if !open[site] {
						open[site] = true
						chosen = append(chosen, site)
					}
				}
				return chosen
			}
			gain := 0.0
			for c := 0; c < n; c++ {
				if d := inst.Dist(c, cand); d < d1[c] {
					gain += d1[c] - d
				}
			}
			if best < 0 || gain > bestGain {
				best, bestGain = cand, gain
			}
		}
		open[best] = true
		chosen = append(chosen, best)
		for c := 0; c < n; c++ {
			if d := inst.Dist(c, best); d < d1[c] {
				d1[c] = d
			}
		}
	}
	return chosen
}

// InterchangeRestarts is the p-median analogue of 2-opt restarts: Teitz–
// Bart descents from fresh random median sets until the budget dies,
// keeping the best. It returns the best set and the number of descents
// started.
func InterchangeRestarts(inst *Instance, b *core.Budget, r *rand.Rand) (*Medians, int) {
	var best *Medians
	starts := 0
	for !b.Exhausted() {
		s := NewSolution(Random(inst, r))
		starts++
		s.Descend(b)
		if best == nil || s.Cost() < best.Cost() {
			best = s.Medians()
		}
	}
	if best == nil {
		best = Random(inst, r)
	}
	return best, starts
}
