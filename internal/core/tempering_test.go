package core

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// constG is a stateless acceptance class: unlike spyG it records nothing, so
// concurrent chains may consult it from multiple workers without races.
type constG struct {
	k    int
	gate int
	prob float64
}

func (g constG) Name() string                       { return "const" }
func (g constG) K() int                             { return g.k }
func (g constG) Gate() int                          { return g.gate }
func (g constG) Prob(int, float64, float64) float64 { return g.prob }

// batchLattice is a lattice with the BatchEvaluator capability. Candidates
// are drawn with exactly the serial recipe against the committed position,
// so a block of B consumes the random stream like B consecutive Propose
// calls — the contract engines rely on for Batch = 1 byte-identity. When
// evals is set, it counts EvalBatch calls across the lattice and its
// clones (unsynchronized: count only single-worker runs).
type batchLattice struct {
	lattice
	cands []int
	evals *int
}

func (l *batchLattice) Clone() Solution {
	return &batchLattice{lattice: lattice{pos: l.pos, costs: l.costs}, evals: l.evals}
}

func (l *batchLattice) DrawBatch(r *rand.Rand, n int) {
	size := len(l.costs)
	l.cands = l.cands[:0]
	for range n {
		to := (l.pos + 1) % size
		if r.IntN(2) == 0 {
			to = (l.pos - 1 + size) % size
		}
		l.cands = append(l.cands, to)
	}
}

func (l *batchLattice) EvalBatch(i int) float64 {
	if l.evals != nil {
		*l.evals++
	}
	return l.costs[l.cands[i]] - l.costs[l.pos]
}

func (l *batchLattice) ProposeBatch(r *rand.Rand, deltas []float64) {
	l.DrawBatch(r, len(deltas))
	for i := range deltas {
		deltas[i] = l.EvalBatch(i)
	}
}

func (l *batchLattice) ApplyBatch(i int) { l.pos = l.cands[i] }

// flatRes is a Result with the Best pointer replaced by its lattice
// position, so full results compare with reflect.DeepEqual.
type flatRes struct {
	Res Result
	Pos int
}

func flatten(t *testing.T, res Result) flatRes {
	t.Helper()
	var pos int
	switch b := res.Best.(type) {
	case *lattice:
		pos = b.pos
	case *batchLattice:
		pos = b.pos
	default:
		t.Fatalf("unexpected Best type %T", res.Best)
	}
	res.Best = nil
	return flatRes{res, pos}
}

func TestTemperingFindsMinimum(t *testing.T) {
	l := &lattice{pos: 0, costs: valley(11)}
	res := Tempering{G: constG{k: 3, prob: 0}, Chains: 4, ExchangeEvery: 50}.
		Run(l, NewBudget(800), rand.New(rand.NewPCG(1, 1)))
	if res.BestCost != 0 {
		t.Fatalf("BestCost = %g, want 0 (valley floor)", res.BestCost)
	}
	if res.Moves != 800 {
		t.Fatalf("Moves = %d, want full budget 800", res.Moves)
	}
	if res.InitialCost != 50 {
		t.Fatalf("InitialCost = %g, want 50", res.InitialCost)
	}
	if best := res.Best.(*lattice); best.pos != 5 {
		t.Fatalf("best position = %d, want 5", best.pos)
	}
}

// TestTemperingWorkersByteIdentical pins the engine's central guarantee: the
// full result — trajectory statistics, per-chain stats, exchange counts, the
// best state — is identical for every worker count.
func TestTemperingWorkersByteIdentical(t *testing.T) {
	run := func(workers int) flatRes {
		l := &lattice{pos: 3, costs: valley(31)}
		res := Tempering{
			G: constG{k: 3, prob: 0.4}, Chains: 4, ExchangeEvery: 50, Workers: workers,
		}.Run(l, NewBudget(2000), rand.New(rand.NewPCG(7, 7)))
		return flatten(t, res)
	}
	want := run(1)
	for _, w := range []int{2, 3, 8} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("Workers=%d diverged from Workers=1:\n got %+v\nwant %+v", w, got, want)
		}
	}
}

func TestTemperingDeterministic(t *testing.T) {
	run := func() flatRes {
		l := &lattice{pos: 1, costs: valley(31)}
		return flatten(t, Tempering{G: constG{k: 2, prob: 0.5}, Chains: 3, ExchangeEvery: 64}.
			Run(l, NewBudget(1500), rand.New(rand.NewPCG(42, 7))))
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds diverged: %+v vs %+v", a, b)
	}
}

// TestTemperingHookDoesNotPerturb pins zero interference: the buffered-event
// replay path and the bare improvement-log path must fold chain-local bests
// into the global best identically.
func TestTemperingHookDoesNotPerturb(t *testing.T) {
	run := func(hook Hook) flatRes {
		l := &lattice{pos: 3, costs: valley(31)}
		return flatten(t, Tempering{
			G: constG{k: 3, prob: 0.5}, Chains: 4, ExchangeEvery: 40, Hook: hook,
		}.Run(l, NewBudget(1200), rand.New(rand.NewPCG(9, 9))))
	}
	bare := run(nil)
	count := 0
	hooked := run(func(Event) { count++ })
	if count == 0 {
		t.Fatal("hook never fired")
	}
	if !reflect.DeepEqual(bare, hooked) {
		t.Fatalf("hook changed the run:\n bare   %+v\n hooked %+v", bare, hooked)
	}
}

// TestTemperingExchangeSchedule verifies the deterministic barrier cadence:
// rounds alternate even/odd adjacent pairs, and attempts land on the
// pair-opening chain's counters.
func TestTemperingExchangeSchedule(t *testing.T) {
	l := &lattice{pos: 0, costs: valley(11)}
	// Budget 800, E=100, K=4: two full rounds. Round 0 attempts pairs
	// (0,1) and (2,3); round 1 attempts (1,2); round 2 grants nothing.
	res := Tempering{G: constG{k: 1, prob: 0}, Chains: 4, ExchangeEvery: 100}.
		Run(l, NewBudget(800), rand.New(rand.NewPCG(3, 1)))
	if res.Exchanges != 3 {
		t.Fatalf("Exchanges = %d, want 3", res.Exchanges)
	}
	wantAttempts := []int64{1, 1, 1, 0} // chains 0 and 2 in round 0, chain 1 in round 1
	var swaps int64
	for c, cs := range res.Chains {
		if cs.SwapAttempts != wantAttempts[c] {
			t.Errorf("chain %d SwapAttempts = %d, want %d", c, cs.SwapAttempts, wantAttempts[c])
		}
		if cs.Swaps > cs.SwapAttempts {
			t.Errorf("chain %d Swaps %d > SwapAttempts %d", c, cs.Swaps, cs.SwapAttempts)
		}
		swaps += cs.Swaps
	}
	if swaps != res.ExchangesAccepted {
		t.Fatalf("chain swap sum %d != ExchangesAccepted %d", swaps, res.ExchangesAccepted)
	}
	if res.ExchangesAccepted > res.Exchanges {
		t.Fatalf("accepted %d > attempted %d", res.ExchangesAccepted, res.Exchanges)
	}
}

// TestTemperingBudgetNotDivisible: a ragged final round still grants in
// ascending chain order and totals exactly the budget.
func TestTemperingBudgetNotDivisible(t *testing.T) {
	l := &lattice{pos: 0, costs: valley(11)}
	res := Tempering{G: constG{k: 1, prob: 0}, Chains: 2, ExchangeEvery: 100}.
		Run(l, NewBudget(250), rand.New(rand.NewPCG(4, 1)))
	if res.Moves != 250 {
		t.Fatalf("Moves = %d, want 250", res.Moves)
	}
	if res.Chains[0].Moves != 150 || res.Chains[1].Moves != 100 {
		t.Fatalf("chain moves = %d,%d, want 150,100 (chain 0 takes the remainder first)",
			res.Chains[0].Moves, res.Chains[1].Moves)
	}
}

func TestTemperingChainStatsSumToTotals(t *testing.T) {
	l := &lattice{pos: 5, costs: valley(11)}
	res := Tempering{G: constG{k: 3, prob: 0.5}, Chains: 4, ExchangeEvery: 30}.
		Run(l, NewBudget(900), rand.New(rand.NewPCG(21, 1)))
	var moves, accepted, uphill int64
	for _, cs := range res.Chains {
		moves += cs.Moves
		accepted += cs.Accepted
		uphill += cs.Uphill
	}
	if moves != res.Moves || accepted != res.Accepted || uphill != res.Uphill {
		t.Fatalf("chain sums (%d,%d,%d) disagree with totals (%d,%d,%d)",
			moves, accepted, uphill, res.Moves, res.Accepted, res.Uphill)
	}
	var lmoves, laccepted, luphill int64
	for _, ls := range res.Levels {
		lmoves += ls.Moves
		laccepted += ls.Accepted
		luphill += ls.Uphill
	}
	if lmoves != res.Moves || laccepted != res.Accepted || luphill != res.Uphill {
		t.Fatalf("level sums (%d,%d,%d) disagree with totals (%d,%d,%d)",
			lmoves, laccepted, luphill, res.Moves, res.Accepted, res.Uphill)
	}
}

func TestTemperingEventInvariants(t *testing.T) {
	var events []Event
	l := &lattice{pos: 5, costs: valley(31)}
	res := Tempering{
		G: constG{k: 3, prob: 0.5}, Chains: 4, ExchangeEvery: 25,
		Hook: func(e Event) { events = append(events, e) },
	}.Run(l, NewBudget(1000), rand.New(rand.NewPCG(4, 2)))

	if events[0].Kind != EventStart {
		t.Fatalf("first event is %v, want start", events[0].Kind)
	}
	last := events[len(events)-1]
	if last.Kind != EventEnd {
		t.Fatalf("last event is %v, want end", last.Kind)
	}
	if last.BestCost != res.BestCost || last.Cost != res.FinalCost {
		t.Fatalf("end event (%g, %g) disagrees with result (%g, %g)",
			last.BestCost, last.Cost, res.BestCost, res.FinalCost)
	}

	n := countKinds(events)
	if n[EventStart] != 1 || n[EventEnd] != 1 {
		t.Fatalf("start/end fired %d/%d times", n[EventStart], n[EventEnd])
	}
	if n[EventPropose] != res.Moves {
		t.Fatalf("%d propose events, want %d (one per attempted move)", n[EventPropose], res.Moves)
	}
	if n[EventAccept]+n[EventReject] != n[EventPropose] {
		t.Fatalf("accept %d + reject %d != propose %d",
			n[EventAccept], n[EventReject], n[EventPropose])
	}
	if n[EventAccept] != res.Accepted {
		t.Fatalf("%d accept events, want %d", n[EventAccept], res.Accepted)
	}
	if n[EventBest] != res.Improvements {
		t.Fatalf("%d best events, want %d", n[EventBest], res.Improvements)
	}
	if n[EventExchange] != res.ExchangesAccepted {
		t.Fatalf("%d exchange events, want %d", n[EventExchange], res.ExchangesAccepted)
	}
	if n[EventExchangeReject] != res.Exchanges-res.ExchangesAccepted {
		t.Fatalf("%d exchange-reject events, want %d",
			n[EventExchangeReject], res.Exchanges-res.ExchangesAccepted)
	}

	// The forwarded EventBest series is the global record: strictly
	// decreasing even though chains improve concurrently.
	prev := res.InitialCost
	for _, e := range events {
		if e.Kind != EventBest {
			continue
		}
		if e.BestCost >= prev {
			t.Fatalf("best series not strictly decreasing: %g after %g", e.BestCost, prev)
		}
		prev = e.BestCost
	}
	// Chain tags stay in range.
	for _, e := range events {
		if e.Chain < 0 || e.Chain >= 4 {
			t.Fatalf("event carries chain %d outside [0,4)", e.Chain)
		}
	}
}

func TestTemperingZeroBudget(t *testing.T) {
	l := &lattice{pos: 2, costs: valley(11)}
	res := Tempering{G: constG{k: 2, prob: 0}, Chains: 3}.
		Run(l, NewBudget(0), rand.New(rand.NewPCG(3, 1)))
	if res.Moves != 0 || res.Accepted != 0 || res.Exchanges != 0 {
		t.Fatalf("zero-budget run did work: %+v", res)
	}
	if res.BestCost != res.InitialCost {
		t.Fatalf("zero-budget best %g != initial %g", res.BestCost, res.InitialCost)
	}
	if len(res.Chains) != 3 {
		t.Fatalf("Chains has %d entries, want 3", len(res.Chains))
	}
}

func TestTemperingConsumesCallerStreamOnce(t *testing.T) {
	// Two configurations that differ in K, E, and Workers must leave the
	// caller's stream at the same position: the engine forks derived streams
	// from exactly one draw.
	run := func(chains int, every int64, workers int) uint64 {
		r := rand.New(rand.NewPCG(11, 13))
		l := &lattice{pos: 0, costs: valley(11)}
		Tempering{G: constG{k: 1, prob: 0.3}, Chains: chains, ExchangeEvery: every, Workers: workers}.
			Run(l, NewBudget(300), r)
		return r.Uint64()
	}
	if a, b := run(2, 50, 1), run(5, 17, 3); a != b {
		t.Fatalf("caller stream position depends on engine shape: %d vs %d", a, b)
	}
}

func TestTemperingPanicsOnBadConfig(t *testing.T) {
	l := &lattice{pos: 0, costs: valley(5)}
	fresh := func() (*Budget, *rand.Rand) { return NewBudget(1), rand.New(rand.NewPCG(1, 1)) }
	for name, f := range map[string]func(){
		"nil G": func() { b, r := fresh(); Tempering{}.Run(l, b, r) },
		"k=0":   func() { b, r := fresh(); Tempering{G: constG{k: 0}}.Run(l, b, r) },
		"temps length": func() {
			b, r := fresh()
			Tempering{G: constG{k: 1}, Chains: 3, Temps: []float64{1, 2}}.Run(l, b, r)
		},
		"temps sign": func() {
			b, r := fresh()
			Tempering{G: constG{k: 1}, Chains: 2, Temps: []float64{1, -2}}.Run(l, b, r)
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		})
	}
}

func TestChainLevelMapping(t *testing.T) {
	for _, tc := range []struct {
		K, k int
		want []int
	}{
		{1, 6, []int{6}},
		{4, 3, []int{3, 2, 2, 1}},
		{4, 1, []int{1, 1, 1, 1}},
		{2, 6, []int{6, 1}},
		{6, 6, []int{6, 5, 4, 3, 2, 1}},
	} {
		for c, want := range tc.want {
			if got := chainLevel(c, tc.K, tc.k); got != want {
				t.Errorf("chainLevel(%d, K=%d, k=%d) = %d, want %d", c, tc.K, tc.k, got, want)
			}
		}
	}
}

func TestTemperingLadder(t *testing.T) {
	ys := []float64{10, 5, 2, 1} // hottest level 1 first, the g-class convention
	if got := TemperingLadder(ys, 4); !reflect.DeepEqual(got, []float64{1, 2, 5, 10}) {
		t.Fatalf("K=4 ladder = %v", got)
	}
	if got := TemperingLadder(ys, 2); !reflect.DeepEqual(got, []float64{1, 10}) {
		t.Fatalf("K=2 ladder = %v", got)
	}
	for name, got := range map[string][]float64{
		"empty":        TemperingLadder(nil, 4),
		"non-positive": TemperingLadder([]float64{3, 0}, 2),
		"K=0":          TemperingLadder(ys, 0),
	} {
		if got != nil {
			t.Errorf("%s: ladder = %v, want nil", name, got)
		}
	}
}

// TestTemperingBatchedByteIdentical: the batched chain path is deterministic
// and worker-independent, like the serial one.
func TestTemperingBatchedByteIdentical(t *testing.T) {
	run := func(workers int) flatRes {
		l := &batchLattice{lattice: lattice{pos: 3, costs: valley(31)}}
		return flatten(t, Tempering{
			G: constG{k: 3, prob: 0.4}, Chains: 4, ExchangeEvery: 50, Batch: 8, Workers: workers,
		}.Run(l, NewBudget(2000), rand.New(rand.NewPCG(7, 7))))
	}
	want := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("batched Workers=%d diverged:\n got %+v\nwant %+v", w, got, want)
		}
	}
	if want.Res.Moves != 2000 {
		t.Fatalf("batched Moves = %d, want full budget", want.Res.Moves)
	}
}

// TestTemperingBatchWithoutCapability: Batch > 1 on a solution without
// BatchEvaluator silently falls back to the serial path.
func TestTemperingBatchWithoutCapability(t *testing.T) {
	run := func(batch int) flatRes {
		l := &lattice{pos: 3, costs: valley(31)}
		return flatten(t, Tempering{G: constG{k: 2, prob: 0.4}, Chains: 2, ExchangeEvery: 50, Batch: batch}.
			Run(l, NewBudget(600), rand.New(rand.NewPCG(5, 5))))
	}
	if a, b := run(0), run(16); !reflect.DeepEqual(a, b) {
		t.Fatalf("Batch on a non-BatchEvaluator changed the run:\n %+v\n %+v", a, b)
	}
}

// TestFigure1BatchOneMatchesSerial pins the compatibility anchor: Batch = 1
// consumes the stream move by move, so it must reproduce the serial engine's
// trajectory byte for byte — across probabilistic, gated, and counter-stop
// configurations.
func TestFigure1BatchOneMatchesSerial(t *testing.T) {
	for name, f := range map[string]Figure1{
		"prob":    {G: constG{k: 3, prob: 0.5}},
		"gated":   {G: constG{k: 2, gate: 7}},
		"counter": {G: constG{k: 2, prob: 0.3}, N: 10},
		"plateau": {G: constG{k: 1, prob: 0.5}, Plateau: PlateauReject},
	} {
		t.Run(name, func(t *testing.T) {
			serial := f
			l1 := &lattice{pos: 4, costs: valley(31)}
			want := flatten(t, serial.Run(l1, NewBudget(900), rand.New(rand.NewPCG(6, 6))))

			batched := f
			batched.Batch = 1
			l2 := &batchLattice{lattice: lattice{pos: 4, costs: valley(31)}}
			got := flatten(t, batched.Run(l2, NewBudget(900), rand.New(rand.NewPCG(6, 6))))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Batch=1 diverged from serial:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestFigure1BatchedLevelClock: the virtual budget clock hands levels over
// at the same marks as the serial engine even mid-block.
func TestFigure1BatchedLevelClock(t *testing.T) {
	l := &batchLattice{lattice: lattice{pos: 5, costs: valley(11)}} // floor: all proposals uphill
	res := Figure1{G: constG{k: 3, prob: 0}, Batch: 7}.
		Run(l, NewBudget(300), rand.New(rand.NewPCG(4, 1)))
	if res.LevelsVisited != 3 {
		t.Fatalf("LevelsVisited = %d, want 3", res.LevelsVisited)
	}
	for temp, ls := range res.Levels {
		if ls.Moves != 100 {
			t.Fatalf("level %d got %d moves, want 100", temp+1, ls.Moves)
		}
	}
	if res.Moves != 300 {
		t.Fatalf("Moves = %d, want 300", res.Moves)
	}
}

// TestFigure1BatchedDiscardsAfterAccept: candidates drawn after an accepted
// one are charged to the budget but never evaluated or decided.
func TestFigure1BatchedDiscardsAfterAccept(t *testing.T) {
	flat := make([]float64, 8) // every move is an accepted plateau
	evals := 0
	l := &batchLattice{lattice: lattice{pos: 0, costs: flat}, evals: &evals}
	res := Figure1{G: constG{k: 1, prob: 0}, Batch: 10, Plateau: PlateauAccept}.
		Run(l, NewBudget(50), rand.New(rand.NewPCG(8, 1)))
	if res.Moves != 50 {
		t.Fatalf("Moves = %d, want 50 (all candidates charged)", res.Moves)
	}
	if res.Accepted != 5 {
		t.Fatalf("Accepted = %d, want 5 (first candidate of each of 5 blocks)", res.Accepted)
	}
	if evals != 5 {
		t.Fatalf("EvalBatch called %d times, want 5 (only decided candidates)", evals)
	}
}

// TestTemperingBatchedEvaluatesOnlyDecided: a batched chain evaluates a
// candidate only when it decides it, so evaluations equal the proposal
// events, and a block ends at its first accept.
func TestTemperingBatchedEvaluatesOnlyDecided(t *testing.T) {
	run := func(costs []float64) (res Result, evals, decided int) {
		l := &batchLattice{lattice: lattice{pos: 3, costs: costs}, evals: &evals}
		hook := func(e Event) {
			if e.Kind == EventPropose {
				decided++
			}
		}
		res = Tempering{G: constG{k: 3, prob: 0.4}, Chains: 4, ExchangeEvery: 50, Batch: 10, Workers: 1,
			Plateau: PlateauAccept, Hook: hook}.Run(l, NewBudget(2000), rand.New(rand.NewPCG(7, 7)))
		return res, evals, decided
	}
	// Every move on a flat landscape is an accepted plateau: one evaluation
	// per block of 10.
	res, evals, decided := run(make([]float64, 8))
	if res.Moves != 2000 || evals != 200 || decided != 200 {
		t.Fatalf("flat: Moves %d, evaluations %d, decided %d; want 2000, 200, 200", res.Moves, evals, decided)
	}
	res, evals, decided = run(valley(31))
	if evals != decided || evals >= int(res.Moves) {
		t.Fatalf("valley: %d evaluations for %d decided of %d charged candidates", evals, decided, res.Moves)
	}
}

// TestFigure1BatchedHookDoesNotPerturb mirrors TestHookDoesNotPerturbRun for
// the batched loop.
func TestFigure1BatchedHookDoesNotPerturb(t *testing.T) {
	run := func(hook Hook) flatRes {
		l := &batchLattice{lattice: lattice{pos: 3, costs: valley(31)}}
		return flatten(t, Figure1{G: constG{k: 3, prob: 0.5}, Batch: 6, Hook: hook}.
			Run(l, NewBudget(700), rand.New(rand.NewPCG(9, 9))))
	}
	bare := run(nil)
	count := 0
	hooked := run(func(Event) { count++ })
	if count == 0 {
		t.Fatal("hook never fired")
	}
	if !reflect.DeepEqual(bare, hooked) {
		t.Fatalf("hook changed the batched run: %+v vs %+v", bare, hooked)
	}
}
