package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"mcopt/internal/rng"
)

// Tempering is a parallel-tempering (replica-exchange) engine: K coupled
// chains of the Figure-1 Metropolis walk, each pinned to one temperature
// level of the g class, stepping in parallel and periodically swapping
// states between adjacent temperatures. Where Figure 1 walks one chain
// *through* the schedule, Tempering holds the whole ladder at once: cold
// chains exploit, hot chains explore, and the exchange moves let a state
// trapped in a cold chain's local minimum climb the ladder, decorrelate,
// and come back down elsewhere ([SALA97]-style coupled chains; see
// DESIGN.md §12).
//
// The run is deterministic for a fixed seed at every Workers value: each
// chain draws from its own derived stream, chains only interact at round
// barriers, and the exchange schedule and its randomness are fixed by the
// round index alone.
type Tempering struct {
	// G is the acceptance-function class. Required.
	G G

	// Chains is K, the number of coupled replicas. Chain 0 is the coldest
	// (the g class's last level), chain K−1 the hottest (level 1); the
	// chains in between spread evenly across the ladder. Zero means 1.
	Chains int

	// ExchangeEvery is E: every chain runs E moves per round, then the
	// round barrier attempts adjacent-pair exchanges. Zero means 256.
	ExchangeEvery int64

	// Temps[c] is chain c's temperature in the exchange criterion,
	// ascending from the coldest chain 0. Empty derives a geometric ladder
	// (ratio 0.9, hottest 10 — the Kirkpatrick shape); callers with a real
	// schedule should pass its values so exchange pressure matches the
	// acceptance function. Length must equal Chains when set.
	Temps []float64

	// Batch, when > 1 and the solution implements BatchEvaluator, makes
	// each chain evaluate proposals in blocks of Batch (see Figure1.Batch
	// for the batched-decision semantics).
	Batch int

	// Workers bounds the goroutines stepping chains within a round (0 =
	// GOMAXPROCS, capped at Chains). Results are byte-identical for every
	// value.
	Workers int

	// Plateau selects the zero-delta policy, as in Figure1.
	Plateau PlateauPolicy

	// Hook, if non-nil, receives every chain's events (Event.Chain tells
	// them apart) plus EventExchange/EventExchangeReject at each barrier.
	// Events are replayed on the engine goroutine in deterministic order;
	// a nil hook costs nothing on the chain-stepping hot path.
	Hook Hook
}

// temperChain is one replica's state plus its per-round scratch. During a
// round only the owning worker touches it; the engine goroutine reads it
// back after the barrier.
type temperChain struct {
	idx   int
	sol   Solution
	be    BatchEvaluator // non-nil iff batching is on
	r     *rand.Rand
	cost  float64
	level int
	beta  float64

	gateCount int
	stat      ChainStat

	// Round scratch, reset by the engine before each round.
	base     int64 // budget mark of the round's first granted move
	grant    int64
	events   []Event   // buffered only when a hook is installed
	improvs  []float64 // chain-local best costs, in improvement order
	bestSol  Solution  // clone at the last chain-local improvement
	best     float64   // chain-local best (seeded with the global best)
	panicked any
}

// Run executes the engine from the given starting state; chain 0 starts on
// s itself (mutating it in place) and the other chains on clones. It panics
// on invalid configuration; run outcomes are reported through the Result.
func (t Tempering) Run(s Solution, b *Budget, r *rand.Rand) Result {
	if t.G == nil {
		panic("core: Tempering.Run with nil G")
	}
	k := t.G.K()
	if k < 1 {
		panic(fmt.Sprintf("core: Tempering.Run: g class %q has k = %d", t.G.Name(), k))
	}
	K := t.Chains
	if K < 1 {
		K = 1
	}
	E := t.ExchangeEvery
	if E < 1 {
		E = 256
	}
	temps := t.Temps
	if len(temps) == 0 {
		// Geometric ladder (ratio 0.9, hottest 10 — the Kirkpatrick shape),
		// coldest first so temps[c] ascends with the chain index. Inlined
		// rather than taken from internal/schedule: that package sits above
		// core in the dependency order.
		temps = make([]float64, K)
		for c := range temps {
			temps[c] = 10 * math.Pow(0.9, float64(K-1-c))
		}
	}
	if len(temps) != K {
		panic(fmt.Sprintf("core: Tempering.Run: %d temps for %d chains", len(temps), K))
	}
	for c, y := range temps {
		if !(y > 0) {
			panic(fmt.Sprintf("core: Tempering.Run: temps[%d] = %g must be positive", c, y))
		}
	}
	gate := t.G.Gate()
	batch := 0
	if t.Batch > 1 {
		if _, ok := s.(BatchEvaluator); ok {
			batch = t.Batch
		}
	}

	cost := s.Cost()
	start := b.Used()
	res := Result{
		Best:          s.Clone(),
		BestCost:      cost,
		InitialCost:   cost,
		LevelsVisited: k,
		Levels:        make([]LevelStat, k),
		Chains:        make([]ChainStat, K),
	}

	// Per-chain streams derive from one draw on the caller's stream, so a
	// Tempering run consumes the caller's rand exactly once regardless of
	// K, E, or Workers. The exchange stream is separate from the chain
	// streams: the barrier draws must not depend on how many moves each
	// chain ran.
	baseSeed := r.Uint64()
	xr := rng.Derive("core/tempering/exchange", baseSeed, 0)

	chains := make([]*temperChain, K)
	for c := range chains {
		ch := &temperChain{
			idx:   c,
			r:     rng.Derive("core/tempering/chain", baseSeed, uint64(c)),
			cost:  cost,
			level: chainLevel(c, K, k),
			beta:  1 / temps[c],
		}
		if c == 0 {
			ch.sol = s
		} else {
			ch.sol = s.Clone()
		}
		if batch > 0 {
			ch.be, _ = ch.sol.(BatchEvaluator)
		}
		ch.stat.Level = ch.level
		ch.stat.Temp = temps[c]
		chains[c] = ch
	}

	hooked := t.Hook != nil
	emit := func(e Event) {
		if hooked {
			t.Hook(e)
		}
	}
	emit(Event{Kind: EventStart, Move: b.Used(), Temp: chains[0].level, Cost: cost, BestCost: cost})

	workers := t.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, K)

	var deltas []float64
	if batch > 0 {
		deltas = make([]float64, K*batch)
	}

	for round := int64(0); ; round++ {
		// Grant phase (engine goroutine, ascending chain order): the grant
		// sequence is a pure function of the budget and E, never of timing.
		any := false
		for _, ch := range chains {
			ch.base = b.Used()
			ch.grant = b.SpendUpTo(E)
			ch.best = res.BestCost
			ch.bestSol = nil
			ch.improvs = ch.improvs[:0]
			ch.events = ch.events[:0]
			ch.panicked = nil
			if ch.grant > 0 {
				any = true
			}
		}
		if !any {
			break
		}

		// Step phase: chains are independent — own solution, own stream,
		// own scratch — so any assignment of chains to workers computes
		// the same states.
		if workers == 1 {
			for _, ch := range chains {
				if ch.grant > 0 {
					t.step(ch, gate, hooked, batchSlice(deltas, ch.idx, batch))
				}
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						c := int(next.Add(1) - 1)
						if c >= K {
							return
						}
						ch := chains[c]
						if ch.grant == 0 {
							continue
						}
						func() {
							defer func() {
								if p := recover(); p != nil {
									ch.panicked = p
								}
							}()
							t.step(ch, gate, hooked, batchSlice(deltas, c, batch))
						}()
					}
				}()
			}
			wg.Wait()
			// Re-panic deterministically: the lowest chain's panic wins, as
			// it would under sequential stepping.
			for _, ch := range chains {
				if ch.panicked != nil {
					panic(ch.panicked)
				}
			}
		}

		// Merge phase (engine goroutine, ascending chain order): replay
		// buffered events, then fold chain-local improvements into the
		// global best. A chain's EventBest is forwarded only while it still
		// beats the global record, so hooks see a monotone best-cost series
		// — and the identical filter runs over the improvement log when no
		// hook is installed (ch.improvs mirrors the chain's EventBest
		// values one for one), keeping results byte-identical with and
		// without observers.
		for _, ch := range chains {
			prev := res.BestCost
			if hooked {
				for _, e := range ch.events {
					if e.Kind == EventBest {
						if e.BestCost >= res.BestCost {
							continue
						}
						res.BestCost = e.BestCost
						res.Improvements++
					}
					emit(e)
				}
			} else {
				for _, v := range ch.improvs {
					if v < res.BestCost {
						res.BestCost = v
						res.Improvements++
					}
				}
			}
			if ch.bestSol != nil && ch.best < prev {
				res.Best = ch.bestSol
			}
		}

		// Exchange phase: adjacent pairs, alternating parity with the round
		// index so every neighboring pair is attempted on a fixed cadence.
		// States swap between temperature slots; acceptance is the
		// Metropolis criterion on (Δβ, Δcost), with the uniform draw taken
		// unconditionally so the exchange stream position depends only on
		// the number of attempts, not their outcomes.
		for i := int(round % 2); i+1 < K; i += 2 {
			ci, cj := chains[i], chains[i+1]
			res.Exchanges++
			ci.stat.SwapAttempts++
			d := cj.cost - ci.cost
			p := math.Exp((ci.beta - cj.beta) * (ci.cost - cj.cost))
			u := xr.Float64()
			if u < p {
				ci.sol, cj.sol = cj.sol, ci.sol
				ci.be, cj.be = cj.be, ci.be
				ci.cost, cj.cost = cj.cost, ci.cost
				res.ExchangesAccepted++
				ci.stat.Swaps++
				emit(Event{Kind: EventExchange, Move: b.Used(), Temp: ci.level, Chain: i,
					Delta: d, Cost: ci.cost, BestCost: res.BestCost})
			} else {
				emit(Event{Kind: EventExchangeReject, Move: b.Used(), Temp: ci.level, Chain: i,
					Delta: d, Cost: ci.cost, BestCost: res.BestCost})
			}
		}
	}

	// Fold chain totals into the run totals.
	for c, ch := range chains {
		ch.stat.FinalCost = ch.cost
		res.Chains[c] = ch.stat
		res.Accepted += ch.stat.Accepted
		res.Uphill += ch.stat.Uphill
		ls := &res.Levels[ch.level-1]
		ls.Moves += ch.stat.Moves
		ls.Accepted += ch.stat.Accepted
		ls.Uphill += ch.stat.Uphill
	}

	// finish re-reads the coldest slot's cost and rescues a best the float
	// accumulator drifted past (bumping Improvements itself if it did).
	out := finish(&res, chains[0].sol, b, start)
	emit(Event{Kind: EventEnd, Move: b.Used(), Temp: chains[0].level, Cost: out.FinalCost, BestCost: out.BestCost})
	return out
}

// TemperingLadder maps a k-level schedule (hottest level first, the g-class
// convention) onto K chain temperatures ascending from the coldest chain 0:
// each chain takes the y of the level it is pinned to, so the exchange
// criterion feels the same temperatures as the acceptance function. It
// returns nil when the schedule is empty or contains a non-positive level —
// callers then fall back to Tempering's default geometric ladder.
func TemperingLadder(ys []float64, K int) []float64 {
	k := len(ys)
	if k == 0 || K < 1 {
		return nil
	}
	for _, y := range ys {
		if !(y > 0) {
			return nil
		}
	}
	temps := make([]float64, K)
	for c := range temps {
		temps[c] = ys[chainLevel(c, K, k)-1]
	}
	return temps
}

// chainLevel maps chain c of K onto the g class's k levels: chain 0 to
// level k (coldest), chain K−1 to level 1 (hottest), evenly in between.
func chainLevel(c, K, k int) int {
	if K == 1 || k == 1 {
		return k
	}
	// Round-to-nearest interpolation of c ∈ [0, K−1] onto [k, 1].
	return k - (c*(k-1)+(K-1)/2)/(K-1)
}

// batchSlice carves chain c's delta scratch out of the shared allocation;
// nil when batching is off.
func batchSlice(deltas []float64, c, batch int) []float64 {
	if batch == 0 {
		return nil
	}
	return deltas[c*batch : (c+1)*batch]
}

// step runs one chain's share of a round: grant moves of the fixed-level
// Metropolis walk, serial or batched. It runs on a worker goroutine and
// touches only the chain's own state.
func (t Tempering) step(ch *temperChain, gate int, buffer bool, deltas []float64) {
	if ch.be != nil {
		t.stepBatched(ch, gate, buffer, deltas)
		return
	}
	s := ch.sol
	for j := int64(0); j < ch.grant; j++ {
		move := ch.base + j
		m := s.Propose(ch.r)
		d := m.Delta()
		ch.decide(&t, gate, buffer, move, d, func() { m.Apply() })
	}
	ch.stat.Moves += ch.grant
}

// stepBatched is step over ProposeBatch blocks. All evaluated candidates
// are charged to the chain's grant; candidates after an accepted one are
// discarded undecided, exactly as in Figure1's batched loop.
func (t Tempering) stepBatched(ch *temperChain, gate int, buffer bool, deltas []float64) {
	off := int64(0)
	for off < ch.grant {
		nb := min(int64(len(deltas)), ch.grant-off)
		block := deltas[:nb]
		ch.be.ProposeBatch(ch.r, block)
		for j := range block {
			move := ch.base + off + int64(j)
			committed := false
			jj := j
			ch.decide(&t, gate, buffer, move, block[j], func() {
				ch.be.ApplyBatch(jj)
				committed = true
			})
			if committed {
				break
			}
		}
		off += nb
	}
	ch.stat.Moves += ch.grant
}

// decide applies the Figure-1 accept/reject rule at the chain's fixed
// level. apply commits the proposal when called.
func (ch *temperChain) decide(t *Tempering, gate int, buffer bool, move int64, d float64, apply func()) {
	emit := func(kind EventKind, delta float64) {
		if buffer {
			ch.events = append(ch.events, Event{Kind: kind, Move: move, Temp: ch.level, Chain: ch.idx,
				Delta: delta, Cost: ch.cost, BestCost: ch.best})
		}
	}
	commit := func() {
		apply()
		ch.cost += d
		ch.stat.Accepted++
		if d > 0 {
			ch.stat.Uphill++
		}
		emit(EventAccept, d)
		if ch.cost < ch.best {
			ch.best = ch.cost
			ch.bestSol = ch.sol.Clone()
			ch.improvs = append(ch.improvs, ch.cost)
			emit(EventBest, d)
		}
	}
	emit(EventPropose, d)
	switch {
	case d < 0:
		ch.gateCount = 0
		commit()
	case d == 0:
		switch t.Plateau {
		case PlateauAccept:
			commit()
		case PlateauAcceptReset:
			ch.gateCount = 0
			commit()
		case PlateauReject:
			emit(EventReject, 0)
		}
	default: // uphill
		if gate > 0 {
			ch.gateCount++
			if ch.gateCount >= gate {
				ch.gateCount = 1
				commit()
			} else {
				emit(EventReject, d)
			}
			return
		}
		p := clampProb(t.G.Prob(ch.level, ch.cost, ch.cost+d))
		if p > 0 && ch.r.Float64() < p {
			commit()
		} else {
			emit(EventReject, d)
		}
	}
}
