package core

import "math/rand/v2"

// runBatched is Figure1.Run over a BatchEvaluator: proposals are drawn
// Batch at a time, then evaluated against the committed state and decided
// in draw order, one at a time. The decision rule, the level clock, the n
// counter, the gate, and the plateau policy are exactly the serial loop's;
// the differences are bounded to (a) the random stream being consumed in
// batch order (all draw randomness up front, decision randomness after)
// and (b) candidates drawn after an accepted one being charged but never
// evaluated or decided — both deterministic for a fixed seed.
//
// The level clock runs on virtual budget marks: block candidate j occupies
// the mark the serial loop's j-th TrySpend would have, so the budget-share
// handover points are identical to the serial engine's.
func (f Figure1) runBatched(s BatchEvaluator, b *Budget, r *rand.Rand) Result {
	k := f.G.K()
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
	counter := 0
	gate := f.G.Gate()
	gateCount := 0

	emitAt := func(kind EventKind, d float64, move int64) {
		if f.Hook != nil {
			f.Hook(Event{Kind: kind, Move: move, Temp: temp, Delta: d, Cost: cost, BestCost: res.BestCost})
		}
	}

	done := func() Result {
		out := finish(&res, s, b, start)
		if f.Hook != nil {
			f.Hook(Event{Kind: EventEnd, Move: b.Used(), Temp: temp, Cost: out.FinalCost, BestCost: out.BestCost})
		}
		return out
	}

	commit := func(i int, d float64, move int64) {
		s.ApplyBatch(i)
		cost += d
		res.Accepted++
		res.Levels[temp-1].Accepted++
		if d > 0 {
			res.Uphill++
			res.Levels[temp-1].Uphill++
		}
		emitAt(EventAccept, d, move)
		if cost < res.BestCost {
			res.BestCost = cost
			res.Best = s.Clone()
			res.Improvements++
			emitAt(EventBest, d, move)
		}
	}

	advance := func() bool {
		if temp == k {
			return false
		}
		temp++
		counter = 0
		res.LevelsVisited = temp
		emitAt(EventLevel, 0, b.Used())
		return true
	}

	emitAt(EventStart, 0, b.Used())
	for {
		base := b.Used()
		grant := b.SpendUpTo(int64(f.Batch))
		if grant == 0 {
			break
		}
		s.DrawBatch(r, int(grant))
		for j := range int(grant) {
			move := base + int64(j)
			d := s.EvalBatch(j)
			for temp < k && move >= levelEnd[temp-1] {
				advance()
			}
			res.Levels[temp-1].Moves++
			emitAt(EventPropose, d, move)
			committed := false
			switch {
			case d < 0:
				counter = 0
				gateCount = 0
				commit(j, d, move)
				committed = true

			case d == 0:
				switch f.Plateau {
				case PlateauAccept:
					commit(j, 0, move)
					committed = true
				case PlateauAcceptReset:
					counter = 0
					gateCount = 0
					commit(j, 0, move)
					committed = true
				case PlateauReject:
					emitAt(EventReject, 0, move)
				}

			default: // uphill
				if f.N > 0 && counter >= f.N {
					if !advance() {
						emitAt(EventReject, d, move)
						res.Completed = true
						return done()
					}
				}
				if gate > 0 {
					gateCount++
					if gateCount >= gate {
						gateCount = 1
						counter = 0
						commit(j, d, move)
						committed = true
					} else {
						counter++
						emitAt(EventReject, d, move)
					}
					break
				}
				p := clampProb(f.G.Prob(temp, cost, cost+d))
				if p > 0 && r.Float64() < p {
					counter = 0
					commit(j, d, move)
					committed = true
				} else {
					counter++
					emitAt(EventReject, d, move)
				}
			}
			if committed {
				// The rest of the block is charged but never evaluated:
				// its deltas would read the pre-move state.
				break
			}
		}
	}
	return done()
}
