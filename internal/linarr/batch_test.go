package linarr

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mcopt/internal/netlist"
)

// TestProposeBatchMatchesSerial is the batched kernel's differential
// anchor: ProposeBatch must return exactly the deltas of the same number of
// consecutive Propose calls on an identical arrangement fed the same random
// stream — across instance shapes, move kinds, and objectives — and
// committing any candidate must land both copies in the same state.
func TestProposeBatchMatchesSerial(t *testing.T) {
	gen := rand.New(rand.NewPCG(2025, 8))
	instances := []struct {
		name string
		nl   *netlist.Netlist
	}{
		{"graph-n6", netlist.RandomGraph(gen, 6, 9)},
		{"graph-n15", netlist.RandomGraph(gen, 15, 30)},
		{"graph-n33", netlist.RandomGraph(gen, 33, 80)},
		{"hyper-n20", netlist.RandomHyper(gen, 20, 15, 2, 6)},
		{"sparse-n25", netlist.RandomGraph(gen, 25, 5)},
	}
	const B = 16
	for _, inst := range instances {
		for _, kind := range []MoveKind{PairwiseInterchange, SingleExchange} {
			for _, obj := range []Objective{Density, TotalSpan} {
				t.Run(inst.name+"/"+kind.String()+"/"+obj.String(), func(t *testing.T) {
					start := Random(inst.nl, rand.New(rand.NewPCG(1, 2)))
					batched := NewSolutionFor(start, kind, obj)
					serial := NewSolutionFor(start.Clone(), kind, obj)
					rb := rand.New(rand.NewPCG(99, 5))
					rs := rand.New(rand.NewPCG(99, 5))
					pick := rand.New(rand.NewPCG(7, 7))
					deltas := make([]float64, B)
					for round := 0; round < 25; round++ {
						batched.ProposeBatch(rb, deltas)
						for i := range deltas {
							want := serial.Propose(rs).Delta()
							if deltas[i] != want {
								t.Fatalf("round %d candidate %d: batched delta %g, serial %g",
									round, i, deltas[i], want)
							}
						}
						// Commit a random candidate on both copies. ApplyBatch
						// itself cross-checks the preview against the serial
						// evaluation and panics on any disagreement.
						i := pick.IntN(B)
						batched.ApplyBatch(i)
						be := batched.arr.batch
						p, q := be.ps[i], be.qs[i]
						var m Move
						if kind == SingleExchange {
							m = serial.arr.EvalReinsertFor(p, q, obj)
						} else {
							m = serial.arr.EvalSwapFor(p, q, obj)
						}
						m.Apply()
						if batched.Cost() != serial.Cost() {
							t.Fatalf("round %d: costs diverged after commit: %g vs %g",
								round, batched.Cost(), serial.Cost())
						}
						if !slices.Equal(batched.arr.Order(), serial.arr.Order()) {
							t.Fatalf("round %d: orders diverged after commit", round)
						}
					}
				})
			}
		}
	}
}

// TestProposeBatchAfterSerialTraffic: a batch drawn while a serial proposal
// overlay is outstanding must still read committed state (ProposeBatch
// settles first), and the random recipe stays aligned with Propose.
func TestProposeBatchAfterSerialTraffic(t *testing.T) {
	nl := netlist.RandomGraph(rand.New(rand.NewPCG(3, 3)), 12, 30)
	start := Random(nl, rand.New(rand.NewPCG(4, 4)))
	s := NewSolution(start, PairwiseInterchange)
	mirror := NewSolution(start.Clone(), PairwiseInterchange)

	r1 := rand.New(rand.NewPCG(8, 8))
	r2 := rand.New(rand.NewPCG(8, 8))
	// Leave an unapplied serial proposal hanging, then batch.
	s.Propose(r1)
	mirror.Propose(r2)
	deltas := make([]float64, 8)
	s.ProposeBatch(r1, deltas)
	for i := range deltas {
		if want := mirror.Propose(r2).Delta(); deltas[i] != want {
			t.Fatalf("candidate %d: batched delta %g, serial %g", i, deltas[i], want)
		}
	}
}

func TestProposeBatchSingleCell(t *testing.T) {
	nl := netlist.MustNew(1, nil)
	s := NewSolution(Identity(nl), PairwiseInterchange)
	r := rand.New(rand.NewPCG(6, 6))
	deltas := []float64{99, 99, 99}
	s.ProposeBatch(r, deltas)
	for i, d := range deltas {
		if d != 0 {
			t.Fatalf("candidate %d: delta %g on a single-cell instance, want 0", i, d)
		}
	}
	// The degenerate batch draws nothing from the stream.
	r2 := rand.New(rand.NewPCG(6, 6))
	if r.Uint64() != r2.Uint64() {
		t.Fatal("single-cell batch consumed the random stream")
	}
	s.ApplyBatch(1) // identity plateau move commits cleanly
}

// TestEvalBatchMatchesProposeBatch pins the lazy protocol to the eager
// one: DrawBatch consumes the stream exactly as ProposeBatch does,
// EvalBatch(i) in any order (repeats included) returns ProposeBatch's
// deltas[i], and ApplyBatch after EvalBatch(i) — the outstanding move, or
// a re-evaluated earlier candidate — leaves the state ProposeBatch's
// ApplyBatch(i) leaves.
func TestEvalBatchMatchesProposeBatch(t *testing.T) {
	gen := rand.New(rand.NewPCG(2026, 10))
	instances := []struct {
		name string
		nl   *netlist.Netlist
	}{
		{"graph-n15", netlist.RandomGraph(gen, 15, 150)},
		{"hyper-n20", netlist.RandomHyper(gen, 20, 15, 2, 6)},
		{"graph-n2", netlist.RandomGraph(gen, 2, 3)},
	}
	const B = 16
	for _, inst := range instances {
		for _, kind := range []MoveKind{PairwiseInterchange, SingleExchange} {
			for _, obj := range []Objective{Density, TotalSpan} {
				t.Run(inst.name+"/"+kind.String()+"/"+obj.String(), func(t *testing.T) {
					start := Random(inst.nl, rand.New(rand.NewPCG(3, 4)))
					lazy := NewSolutionFor(start, kind, obj)
					eager := NewSolutionFor(start.Clone(), kind, obj)
					rl := rand.New(rand.NewPCG(41, 5))
					re := rand.New(rand.NewPCG(41, 5))
					pick := rand.New(rand.NewPCG(8, 8))
					deltas := make([]float64, B)
					for round := 0; round < 30; round++ {
						eager.ProposeBatch(re, deltas)
						lazy.DrawBatch(rl, B)
						if rl.Uint64() != re.Uint64() {
							t.Fatalf("round %d: DrawBatch left the stream elsewhere than ProposeBatch", round)
						}
						for _, i := range pick.Perm(B)[:1+pick.IntN(B)] {
							if got := lazy.EvalBatch(i); got != deltas[i] {
								t.Fatalf("round %d: EvalBatch(%d) = %g, ProposeBatch %g", round, i, got, deltas[i])
							}
						}
						i := pick.IntN(B)
						if got := lazy.EvalBatch(i); got != deltas[i] {
							t.Fatalf("round %d: EvalBatch(%d) = %g, ProposeBatch %g", round, i, got, deltas[i])
						}
						if pick.IntN(3) == 0 {
							// Move the outstanding proposal to another
							// candidate, so ApplyBatch(i) re-evaluates.
							lazy.EvalBatch(pick.IntN(B))
						}
						lazy.ApplyBatch(i)
						eager.ApplyBatch(i)
						if lazy.Cost() != eager.Cost() || !slices.Equal(lazy.arr.Order(), eager.arr.Order()) {
							t.Fatalf("round %d: states diverged after ApplyBatch(%d)", round, i)
						}
						checkAgainstOracle(t, lazy.arr, "lazy")
					}
				})
			}
		}
	}
}

// TestApplyBatchStalePanics: ApplyBatch and EvalBatch panic on a block
// that any other evaluation or commit has made stale, outside the block,
// with no block drawn, and (ApplyBatch) on a candidate never evaluated.
func TestApplyBatchStalePanics(t *testing.T) {
	nl := netlist.RandomGraph(rand.New(rand.NewPCG(7, 7)), 10, 20)
	s := NewSolution(Random(nl, rand.New(rand.NewPCG(8, 8))), PairwiseInterchange)
	fresh := NewSolution(Random(nl, rand.New(rand.NewPCG(10, 10))), PairwiseInterchange)
	r := rand.New(rand.NewPCG(9, 9))
	deltas := make([]float64, 4)
	for _, c := range []struct {
		name  string
		setup func() // must not panic
		stale func() // must panic
	}{
		{"after serial proposal", func() { s.ProposeBatch(r, deltas); s.Propose(r) }, func() { s.ApplyBatch(0) }},
		{"after commit", func() { s.ProposeBatch(r, deltas); s.ApplyBatch(2) }, func() { s.ApplyBatch(1) }},
		{"out of range", func() { s.ProposeBatch(r, deltas) }, func() { s.ApplyBatch(4) }},
		{"no batch", func() {}, func() { fresh.ApplyBatch(0) }},
		{"unevaluated candidate", func() { s.DrawBatch(r, 4); s.EvalBatch(1) }, func() { s.ApplyBatch(2) }},
		{"eval after serial proposal", func() { s.DrawBatch(r, 4); s.EvalBatch(0); s.Propose(r) }, func() { s.EvalBatch(1) }},
		{"eval after commit", func() { s.DrawBatch(r, 4); s.EvalBatch(3); s.ApplyBatch(3) }, func() { s.EvalBatch(0) }},
		{"eval out of range", func() { s.DrawBatch(r, 4) }, func() { s.EvalBatch(4) }},
		{"eval with no batch", func() {}, func() { fresh.EvalBatch(0) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.setup()
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			c.stale()
		})
	}
}

// TestProposeBatchCloneIndependent: the batch scratch must not travel with
// clones — a clone starts batchless and batches independently.
func TestProposeBatchCloneIndependent(t *testing.T) {
	nl := netlist.RandomGraph(rand.New(rand.NewPCG(11, 11)), 10, 25)
	s := NewSolution(Random(nl, rand.New(rand.NewPCG(12, 12))), PairwiseInterchange)
	r := rand.New(rand.NewPCG(13, 13))
	deltas := make([]float64, 4)
	s.ProposeBatch(r, deltas)

	c := s.Clone().(*Solution)
	if c.arr.batch != nil {
		t.Fatal("clone inherited the batch scratch")
	}
	// Both copies batch and commit without interfering.
	cd := make([]float64, 4)
	c.ProposeBatch(rand.New(rand.NewPCG(14, 14)), cd)
	c.ApplyBatch(0)
	s.ApplyBatch(0)
}
