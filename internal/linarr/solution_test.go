package linarr

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"mcopt/internal/core"
	"mcopt/internal/netlist"
	"mcopt/internal/rng"
)

func TestProposeKinds(t *testing.T) {
	r := rng.Stream("linarr-propose", 1)
	nl := netlist.RandomGraph(r, 8, 20)
	for _, kind := range []MoveKind{PairwiseInterchange, SingleExchange} {
		s := NewSolution(Random(nl, r), kind)
		for i := 0; i < 100; i++ {
			m := s.Propose(r)
			before := s.Density()
			m.Apply()
			if float64(s.Density()-before) != m.Delta() {
				t.Fatalf("%v: Delta %v inconsistent with density change %d",
					kind, m.Delta(), s.Density()-before)
			}
		}
	}
}

func TestNewSolutionRejectsUnknownKind(t *testing.T) {
	nl := netlist.MustNew(2, [][]int{{0, 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown move kind")
		}
	}()
	NewSolution(Identity(nl), MoveKind(99))
}

func TestDescendReachesLocalOptimum(t *testing.T) {
	r := rng.Stream("linarr-descend", 2)
	for _, kind := range []MoveKind{PairwiseInterchange, SingleExchange} {
		for trial := 0; trial < 5; trial++ {
			nl := netlist.RandomHyper(r, 10, 30, 2, 4)
			s := NewSolution(Random(nl, r), kind)
			start := s.Density()
			b := core.NewBudget(1 << 20)
			if !s.Descend(b) {
				t.Fatalf("%v trial %d: descend did not finish within a huge budget", kind, trial)
			}
			if s.Density() > start {
				t.Fatalf("%v trial %d: descend increased density %d -> %d", kind, trial, start, s.Density())
			}
			// Post-condition: no improving move of the class remains.
			n := nl.NumCells()
			for p := 0; p < n; p++ {
				for q := 0; q < n; q++ {
					if p == q {
						continue
					}
					var m Move
					if kind == SingleExchange {
						m = s.Arrangement().EvalReinsert(p, q)
					} else {
						m = s.Arrangement().EvalSwap(p, q)
					}
					if m.DeltaInt() < 0 {
						t.Fatalf("%v trial %d: improving move (%d,%d) remains after descend", kind, trial, p, q)
					}
				}
			}
		}
	}
}

// descendUnfiltered is Descend without the peak-gap bound: every candidate
// is evaluated. It is the reference TestDescendMatchesUnfiltered holds the
// bounded descent to.
func descendUnfiltered(s *Solution, b *core.Budget) bool {
	n := s.arr.NumCells()
	if n < 2 {
		return true
	}
	for {
		improved := false
		if s.kind == SingleExchange {
			for p := 0; p < n; p++ {
				for q := 0; q < n; q++ {
					if p == q {
						continue
					}
					if !b.TrySpend() {
						return false
					}
					if m := s.arr.EvalReinsertFor(p, q, s.obj); m.DeltaInt() < 0 {
						m.Apply()
						improved = true
					}
				}
			}
		} else {
			for p := 0; p < n-1; p++ {
				for q := p + 1; q < n; q++ {
					if !b.TrySpend() {
						return false
					}
					if m := s.arr.EvalSwapFor(p, q, s.obj); m.DeltaInt() < 0 {
						m.Apply()
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

// TestDescendMatchesUnfiltered: the peak-gap bound skips only candidates
// that cannot improve, so Descend must retrace the unfiltered descent — the
// same completion flag, budget charge, order and cost after every descent.
// Instances are GOLA graphs and multi-pin NOLA netlists of 2–31 cells,
// under both move kinds and both objectives; budgets often end mid-sweep,
// and random applied moves separate the descents.
func TestDescendMatchesUnfiltered(t *testing.T) {
	gen := rand.New(rand.NewPCG(2026, 19))
	for trial := 0; trial < 48; trial++ {
		cells := 2 + gen.IntN(30)
		shape := "gola"
		nl := netlist.RandomGraph(gen, cells, 1+gen.IntN(5*cells))
		if trial%2 == 1 {
			shape = "nola"
			nl = netlist.RandomHyper(gen, cells, 1+gen.IntN(3*cells), 2, min(cells, 6))
		}
		kind, obj := MoveKind(trial/2%2), Objective(trial/4%2)
		start := Random(nl, gen)
		got := NewSolutionFor(start, kind, obj)
		want := NewSolutionFor(start.Clone(), kind, obj)
		for round := 0; round < 5; round++ {
			label := fmt.Sprintf("trial %d (%s, %d cells, %v, %v) round %d", trial, shape, cells, kind, obj, round)
			limit := int64(gen.IntN(3 * cells * cells))
			bg, bw := core.NewBudget(limit), core.NewBudget(limit)
			dg, dw := got.Descend(bg), descendUnfiltered(want, bw)
			if dg != dw || bg.Used() != bw.Used() {
				t.Fatalf("%s: budget %d: done %v after %d moves, unfiltered done %v after %d",
					label, limit, dg, bg.Used(), dw, bw.Used())
			}
			if got.Cost() != want.Cost() || !slices.Equal(got.arr.Order(), want.arr.Order()) {
				t.Fatalf("%s: cost %g order %v, unfiltered cost %g order %v",
					label, got.Cost(), got.arr.Order(), want.Cost(), want.arr.Order())
			}
			for k := gen.IntN(4); k > 0; k-- {
				p, q := gen.IntN(cells), gen.IntN(cells)
				if gen.IntN(2) == 0 {
					got.arr.EvalSwap(p, q).Apply()
					want.arr.EvalSwap(p, q).Apply()
				} else {
					got.arr.EvalReinsert(p, q).Apply()
					want.arr.EvalReinsert(p, q).Apply()
				}
			}
		}
	}
}

func TestDescendRespectsBudget(t *testing.T) {
	r := rng.Stream("linarr-descend-budget", 3)
	nl := netlist.RandomGraph(r, 15, 150)
	s := NewSolution(Random(nl, r), PairwiseInterchange)
	b := core.NewBudget(10)
	if s.Descend(b) {
		t.Fatal("descend claimed completion with a 10-move budget on a 105-pair sweep")
	}
	if b.Used() != 10 {
		t.Fatalf("descend consumed %d moves, budget was 10", b.Used())
	}
}

func TestDescendZeroBudget(t *testing.T) {
	r := rng.Stream("linarr-descend-zero", 4)
	nl := netlist.RandomGraph(r, 6, 12)
	s := NewSolution(Random(nl, r), PairwiseInterchange)
	if s.Descend(core.NewBudget(0)) {
		t.Fatal("descend claimed completion with zero budget")
	}
}

func TestCloneIsIndependentSolution(t *testing.T) {
	r := rng.Stream("linarr-clone-sol", 5)
	nl := netlist.RandomGraph(r, 10, 40)
	s := NewSolution(Random(nl, r), PairwiseInterchange)
	before := s.Density()
	cp := s.Clone().(*Solution)
	for i := 0; i < 30; i++ {
		cp.Propose(r).Apply()
	}
	if s.Density() != before {
		t.Fatal("mutating cloned solution changed the original")
	}
}

func TestProposeOnSingleCell(t *testing.T) {
	nl := netlist.MustNew(1, nil)
	s := NewSolution(Identity(nl), PairwiseInterchange)
	r := rng.Stream("linarr-single", 6)
	m := s.Propose(r)
	if m.Delta() != 0 {
		t.Fatalf("single-cell proposal delta = %v, want 0", m.Delta())
	}
	m.Apply()
}

func TestEnumerableNeighborhood(t *testing.T) {
	r := rng.Stream("linarr-enum", 7)
	nl := netlist.RandomGraph(r, 8, 24)
	for _, kind := range []MoveKind{PairwiseInterchange, SingleExchange} {
		s := NewSolution(Random(nl, r), kind)
		n := s.NeighborhoodSize()
		want := 8 * 7 / 2
		if kind == SingleExchange {
			want = 8 * 7
		}
		if n != want {
			t.Fatalf("%v: neighborhood size %d, want %d", kind, n, want)
		}
		// Every index decodes to a valid move whose delta matches a direct
		// evaluation; all moves must be distinct state changes.
		for idx := 0; idx < n; idx++ {
			m := s.EvalNeighbor(idx)
			before := s.Density()
			m.Apply()
			after := s.Density()
			if after-before != int(m.Delta()) {
				t.Fatalf("%v: neighbor %d delta mismatch", kind, idx)
			}
			// Undo by re-deriving the inverse through the public API: for
			// pairwise swap the same index is self-inverse.
			if kind == PairwiseInterchange {
				s.EvalNeighbor(idx).Apply()
				if s.Density() != before {
					t.Fatalf("%v: neighbor %d not self-inverse", kind, idx)
				}
			} else {
				s = NewSolution(Random(nl, rng.Stream("linarr-enum-reset", uint64(idx))), kind)
			}
		}
	}
}

func TestEnumerableIndexPanics(t *testing.T) {
	nl := netlist.MustNew(4, [][]int{{0, 1}})
	s := NewSolution(Identity(nl), PairwiseInterchange)
	for _, idx := range []int{-1, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EvalNeighbor(%d) did not panic", idx)
				}
			}()
			s.EvalNeighbor(idx)
		}()
	}
}

func TestPairFromIndexBijective(t *testing.T) {
	n := 9
	seen := map[[2]int]bool{}
	for idx := 0; idx < n*(n-1)/2; idx++ {
		p, q := pairFromIndex(idx, n)
		if p < 0 || q >= n || p >= q {
			t.Fatalf("index %d decoded to invalid pair (%d,%d)", idx, p, q)
		}
		key := [2]int{p, q}
		if seen[key] {
			t.Fatalf("pair (%d,%d) repeated", p, q)
		}
		seen[key] = true
	}
	if len(seen) != n*(n-1)/2 {
		t.Fatalf("decoded %d distinct pairs, want %d", len(seen), n*(n-1)/2)
	}
}

func TestRejectionlessOnArrangement(t *testing.T) {
	r := rng.Stream("linarr-rejless", 8)
	nl := netlist.RandomGraph(r, 12, 100)
	s := NewSolution(Random(nl, r), PairwiseInterchange)
	res := core.Rejectionless{G: gOneStub{}}.Run(s, core.NewBudget(20000), r)
	if res.Reduction() <= 0 {
		t.Fatal("rejectionless made no progress on GOLA")
	}
	if res.Accepted == 0 {
		t.Fatal("no moves committed")
	}
}
