package core

import (
	"fmt"
	"math/rand/v2"
)

// Enumerable is a Solution whose entire neighborhood can be enumerated,
// required by the Rejectionless strategy. Indices address the moves of the
// *current* state; any Apply may re-map them.
type Enumerable interface {
	Solution

	// NeighborhoodSize returns the number of distinct perturbations of the
	// current state.
	NeighborhoodSize() int

	// EvalNeighbor evaluates the perturbation with the given index, in
	// [0, NeighborhoodSize()). Like Propose, the returned move may live in
	// the Solution's move storage, and any subsequent call to EvalNeighbor,
	// Propose, Apply, or Descend invalidates it.
	EvalNeighbor(idx int) Move
}

// Rejectionless is the "simulated annealing without rejected moves" of
// Greene & Supowit [GREE84], which the paper's §2 reviews: instead of
// proposing uniformly and rejecting, every step evaluates the entire
// neighborhood, weights each move by its acceptance probability (1 for
// downhill), and samples one move from that distribution — so every step
// commits a move. [GREE84] trades memory for time by caching the weights;
// this implementation re-evaluates them, so the trade shows up as budget:
// each step charges NeighborhoodSize + 1 evaluations, which beats Figure 1
// exactly when Figure 1's acceptance rate drops below 1/NeighborhoodSize —
// the low-temperature regime [GREE84] targets ("the method proposed trades
// computer time with computer space").
type Rejectionless struct {
	// G is the acceptance-function class. Required. Gate is ignored (the
	// gate is a Figure-1 device).
	G G

	// IdealizedCache, when set, charges only one budget unit per committed
	// move instead of NeighborhoodSize + 1 — modeling [GREE84]'s cached
	// weight structure as if its maintenance were free. The default (full
	// charging) and this idealization bracket the method's true cost; the
	// Benchmark_AblationRejectionless bench reports both.
	IdealizedCache bool

	// Hook, if non-nil, receives an Event at every decision point: run
	// start/end, every committed move (a propose/accept pair for the sampled
	// winner — not one event per neighborhood evaluation), every temperature
	// advance, and every best-so-far improvement.
	Hook Hook
}

// Run executes the strategy, mutating s in place and spending b. The run
// stops when the budget dies or the state freezes (every neighbor has
// acceptance weight zero) at the final temperature level.
func (f Rejectionless) Run(s Enumerable, b *Budget, r *rand.Rand) Result {
	if f.G == nil {
		panic("core: Rejectionless.Run with nil G")
	}
	k := f.G.K()
	if k < 1 {
		panic(fmt.Sprintf("core: Rejectionless.Run: g class %q has k = %d", f.G.Name(), k))
	}

	cost := s.Cost()
	start := b.Used()
	res := Result{
		Best:          s.Clone(),
		BestCost:      cost,
		InitialCost:   cost,
		LevelsVisited: 1,
		Levels:        make([]LevelStat, k),
	}

	levelEnd := make([]int64, k)
	acc := b.Used()
	for i, share := range b.Split(k) {
		acc += share
		levelEnd[i] = acc
	}
	temp := 1

	emit := func(kind EventKind, d float64) {
		if f.Hook != nil {
			f.Hook(Event{Kind: kind, Move: b.Used(), Temp: temp, Delta: d, Cost: cost, BestCost: res.BestCost})
		}
	}

	done := func() Result {
		out := finish(&res, s, b, start)
		if f.Hook != nil {
			f.Hook(Event{Kind: EventEnd, Move: b.Used(), Temp: temp, Cost: out.FinalCost, BestCost: out.BestCost})
		}
		return out
	}

	var weights []float64
	var deltas []float64

	emit(EventStart, 0)
	for {
		for temp < k && b.Used() >= levelEnd[temp-1] {
			temp++
			res.LevelsVisited = temp
			emit(EventLevel, 0)
		}
		n := s.NeighborhoodSize()
		if n == 0 {
			res.Completed = true
			break
		}
		if cap(weights) < n {
			weights = make([]float64, n)
			deltas = make([]float64, n)
		}
		weights = weights[:n]
		deltas = deltas[:n]

		// Sweep the neighborhood, charging one budget unit per evaluation
		// (free under the idealized cache).
		total := 0.0
		swept := true
		for idx := 0; idx < n; idx++ {
			if !f.IdealizedCache && !b.TrySpend() {
				swept = false
				break
			}
			d := s.EvalNeighbor(idx).Delta()
			deltas[idx] = d
			w := 1.0
			if d > 0 {
				w = clampProb(f.G.Prob(temp, cost, cost+d))
			}
			weights[idx] = w
			total += w
		}
		if !swept {
			break
		}
		if total == 0 {
			// Frozen at this level: advance, or stop at the last level.
			if temp == k {
				res.Completed = true
				break
			}
			temp++
			res.LevelsVisited = temp
			emit(EventLevel, 0)
			continue
		}

		// Sample a move proportionally to its weight.
		u := r.Float64() * total
		chosen := n - 1
		for idx := 0; idx < n; idx++ {
			u -= weights[idx]
			if u < 0 {
				chosen = idx
				break
			}
		}
		// Re-evaluate the winner (one more budget unit) so that its Move is
		// fresh, then commit.
		if !b.TrySpend() {
			break
		}
		m := s.EvalNeighbor(chosen)
		d := m.Delta()
		emit(EventPropose, d)
		m.Apply()
		cost += d
		res.Accepted++
		res.Levels[temp-1].Moves++
		res.Levels[temp-1].Accepted++
		if d > 0 {
			res.Uphill++
			res.Levels[temp-1].Uphill++
		}
		emit(EventAccept, d)
		if cost < res.BestCost {
			res.BestCost = cost
			res.Best = s.Clone()
			res.Improvements++
			emit(EventBest, d)
		}
	}
	return done()
}
