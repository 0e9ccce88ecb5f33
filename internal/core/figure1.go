package core

import (
	"fmt"
	"math/rand/v2"
)

// Figure1 is the paper's Figure-1 strategy: the Metropolis adaptation with a
// temperature schedule. Every proposed perturbation is evaluated; downhill
// moves are always taken, uphill moves are taken with probability
// g_temp(h(i), h(j)). The move budget is divided evenly across the g class's
// k temperature levels, mirroring the paper's "⌈t/k⌉ seconds at each
// temperature"; an optional rejection counter reproduces the pseudocode's
// early temperature advance.
type Figure1 struct {
	// G is the acceptance-function class. Required.
	G G

	// N is the paper's n: the number of consecutive unaccepted uphill
	// proposals that advances the temperature level (and, at the final
	// level, stops the run). Zero disables the counter, leaving the budget
	// split as the only level clock — the configuration matching the
	// paper's equal-CPU-time experiments.
	N int

	// Plateau selects the zero-delta policy. The zero value, PlateauAccept,
	// is the library default.
	Plateau PlateauPolicy

	// Batch, when > 1 and the solution implements BatchEvaluator, switches
	// to the batched loop: proposals are drawn in blocks of Batch, then
	// evaluated against the committed state and decided one at a time, in
	// draw order, until the first accept. Every drawn candidate costs one
	// budget unit; candidates drawn after an accepted one are charged but
	// never evaluated or decided (they were drawn from the pre-move
	// state). So a block costs only what its decisions read, and Batch
	// changes only the order in which the random stream is consumed: 0
	// and 1 run the serial loop unchanged, while Batch > 1 is a distinct
	// (still deterministic) trajectory.
	Batch int

	// Hook, if non-nil, receives an Event at every decision point: run
	// start/end, every proposal with its accept/reject resolution, every
	// temperature advance, and every best-so-far improvement. Nil costs
	// one comparison per decision point.
	Hook Hook
}

// Run executes the strategy from the given starting state, mutating s in
// place and spending b. It panics if the configuration is invalid; run
// outcomes, including a zero budget, are reported through the Result.
func (f Figure1) Run(s Solution, b *Budget, r *rand.Rand) Result {
	if f.G == nil {
		panic("core: Figure1.Run with nil G")
	}
	k := f.G.K()
	if k < 1 {
		panic(fmt.Sprintf("core: Figure1.Run: g class %q has k = %d", f.G.Name(), k))
	}
	if f.Batch > 1 {
		if be, ok := s.(BatchEvaluator); ok {
			return f.runBatched(be, b, r)
		}
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

	// levelEnd[t-1] is the absolute Used() mark at which level t yields to
	// level t+1.
	levelEnd := make([]int64, k)
	acc := b.Used()
	for i, share := range b.Split(k) {
		acc += share
		levelEnd[i] = acc
	}

	temp := 1
	counter := 0 // consecutive unaccepted uphill proposals (the paper's n counter)
	gate := f.G.Gate()
	gateCount := 0 // consecutive uphill proposals under the g = 1 gate

	emit := func(kind EventKind, d float64) {
		if f.Hook != nil {
			f.Hook(Event{Kind: kind, Move: b.Used(), Temp: temp, Delta: d, Cost: cost, BestCost: res.BestCost})
		}
	}

	// done stamps the run-end bookkeeping and emits the terminal event.
	done := func() Result {
		out := finish(&res, s, b, start)
		if f.Hook != nil {
			f.Hook(Event{Kind: EventEnd, Move: b.Used(), Temp: temp, Cost: out.FinalCost, BestCost: out.BestCost})
		}
		return out
	}

	commit := func(m Move, d float64) {
		m.Apply()
		cost += d
		res.Accepted++
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

	advance := func() bool {
		if temp == k {
			return false
		}
		temp++
		counter = 0
		res.LevelsVisited = temp
		emit(EventLevel, 0)
		return true
	}

	emit(EventStart, 0)
	for {
		// Budget-share clock: hand over to the next level once this level's
		// share is spent.
		for temp < k && b.Used() >= levelEnd[temp-1] {
			if !advance() {
				break
			}
		}
		if !b.TrySpend() {
			break
		}
		res.Levels[temp-1].Moves++
		m := s.Propose(r)
		d := m.Delta()
		emit(EventPropose, d)
		switch {
		case d < 0:
			counter = 0
			gateCount = 0
			commit(m, d)

		case d == 0:
			switch f.Plateau {
			case PlateauAccept:
				commit(m, 0)
			case PlateauAcceptReset:
				counter = 0
				gateCount = 0
				commit(m, 0)
			case PlateauReject:
				// Drop the move; plateau proposals do not advance the
				// counter because they are not cost increases.
				emit(EventReject, 0)
			}

		default: // uphill
			if f.N > 0 && counter >= f.N {
				if !advance() {
					// The run's own stopping rule fired; the pending
					// proposal is dropped.
					emit(EventReject, d)
					res.Completed = true
					return done()
				}
			}
			if gate > 0 {
				// The paper's special g = 1 implementation: the uphill state
				// becomes the new starting point only on the gate-th
				// consecutive uphill proposal, then the count restarts at 1.
				gateCount++
				if gateCount >= gate {
					gateCount = 1
					counter = 0
					commit(m, d)
				} else {
					counter++
					emit(EventReject, d)
				}
				continue
			}
			p := clampProb(f.G.Prob(temp, cost, cost+d))
			if p > 0 && r.Float64() < p {
				counter = 0
				commit(m, d)
			} else {
				counter++
				emit(EventReject, d)
			}
		}
	}
	return done()
}

// finish stamps the run-end bookkeeping shared by the engines.
func finish(res *Result, s Solution, b *Budget, start int64) Result {
	// Guard against float drift in delta accumulation on real-valued
	// objectives: re-read the authoritative cost.
	actual := s.Cost()
	if actual < res.BestCost {
		res.BestCost = actual
		res.Best = s.Clone()
		res.Improvements++
	}
	res.FinalCost = actual
	res.Moves = b.Used() - start
	return *res
}
