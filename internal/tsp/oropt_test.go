package tsp

import (
	"math"
	"slices"
	"testing"

	"mcopt/internal/core"
	"mcopt/internal/rng"
)

func TestOrOptDeltaMatchesRecompute(t *testing.T) {
	r := rng.Stream("oropt-delta", 1)
	inst := RandomEuclidean(r, 16)
	tour := RandomTour(inst, r).WithMoveKind(OrOpt)
	for step := 0; step < 500; step++ {
		m := tour.Propose(r)
		before := tour.Length()
		m.Apply()
		if got := inst.TourLength(tour.Order()); math.Abs(got-tour.Length()) > 1e-6 {
			t.Fatalf("step %d: maintained length %g, recomputed %g", step, tour.Length(), got)
		}
		if math.Abs(before+m.Delta()-tour.Length()) > 1e-9 {
			t.Fatalf("step %d: delta inconsistent", step)
		}
		seen := make([]bool, 16)
		for _, c := range tour.Order() {
			if seen[c] {
				t.Fatalf("step %d: city repeated after or-opt", step)
			}
			seen[c] = true
		}
	}
}

func TestOrOptHandExample(t *testing.T) {
	// Square plus an outlier city placed mid-edge order: relocating it next
	// to its geometric neighbors must shorten the tour.
	inst := MustNewInstance([]Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, -0.1}})
	// Tour 0,2,4,1,3 puts city 4 between 2 and 1 (bad).
	tour := MustNewTour(inst, []int{0, 2, 4, 1, 3}).WithMoveKind(OrOpt)
	before := tour.Length()
	if !tour.Descend(core.NewBudget(1 << 16)) {
		t.Fatal("descend did not finish")
	}
	if tour.Length() >= before {
		t.Fatalf("or-opt descend made no progress: %g -> %g", before, tour.Length())
	}
}

func TestOrOptLegality(t *testing.T) {
	inst := RandomEuclidean(rng.Stream("oropt-legal", 2), 8)
	tour := RandomTour(inst, rng.Stream("oropt-legal-start", 2))
	cases := []struct {
		i, l, j int
		want    bool
	}{
		{0, 1, 0, false},  // j inside [i-1 .. i+l-1] (wraps to n-1? no: j==i)
		{0, 1, 7, false},  // j == i-1 (mod n)
		{0, 1, 3, true},   // clean relocation
		{2, 3, 1, false},  // j == i-1
		{2, 3, 4, false},  // j inside segment
		{2, 3, 5, true},   // j just past segment end: insertion after order[5]... wait i+l-1 = 4, so 5 is legal
		{6, 3, 0, false},  // i+l beyond n
		{-1, 1, 3, false}, // bad i
		{0, 1, 8, false},  // bad j
	}
	for _, tc := range cases {
		if got := tour.orOptLegal(tc.i, tc.l, tc.j); got != tc.want {
			t.Errorf("orOptLegal(%d,%d,%d) = %v, want %v", tc.i, tc.l, tc.j, got, tc.want)
		}
	}
}

func TestOrOptDescendOptimal(t *testing.T) {
	r := rng.Stream("oropt-descend", 3)
	inst := RandomEuclidean(r, 12)
	tour := RandomTour(inst, r).WithMoveKind(OrOpt)
	if !tour.Descend(core.NewBudget(1 << 20)) {
		t.Fatal("descend did not finish")
	}
	n := inst.N()
	for l := 1; l <= 3; l++ {
		for i := 0; i+l <= n; i++ {
			for j := 0; j < n; j++ {
				if !tour.orOptLegal(i, l, j) {
					continue
				}
				if tour.orOptDelta(i, l, j) < -1e-9 {
					t.Fatalf("improving or-opt (%d,%d,%d) remains after descend", i, l, j)
				}
			}
		}
	}
}

func TestOrOptUnderEngine(t *testing.T) {
	r := rng.Stream("oropt-engine", 4)
	inst := RandomEuclidean(r, 30)
	tour := RandomTour(inst, r).WithMoveKind(OrOpt)
	g := stubG{}
	res := core.Figure1{G: g}.Run(tour, core.NewBudget(5000), r)
	if res.Reduction() <= 0 {
		t.Fatal("or-opt engine run made no progress")
	}
	if res.Best.(*Tour).MoveKind() != OrOpt {
		t.Fatal("clone lost the move kind")
	}
}

type stubG struct{}

func (stubG) Name() string                       { return "stub" }
func (stubG) K() int                             { return 1 }
func (stubG) Gate() int                          { return 0 }
func (stubG) Prob(int, float64, float64) float64 { return 0.1 }

func TestWithMoveKindValidates(t *testing.T) {
	inst := RandomEuclidean(rng.Stream("oropt-kind", 5), 5)
	tour := RandomTour(inst, rng.Stream("oropt-kind-start", 5))
	if tour.MoveKind() != TwoOpt {
		t.Fatal("default move kind not 2-opt")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad move kind accepted")
		}
	}()
	tour.WithMoveKind(TourMoveKind(9))
}

func TestTourMoveKindString(t *testing.T) {
	if TwoOpt.String() != "2-opt" || OrOpt.String() != "or-opt" || TourMoveKind(7).String() != "unknown" {
		t.Fatal("TourMoveKind strings wrong")
	}
}

func TestEnumerableTwoOpt(t *testing.T) {
	r := rng.Stream("tsp-enum", 20)
	inst := RandomEuclidean(r, 10)
	tour := RandomTour(inst, r)
	want := 10 * 7 / 2 // n(n-3)/2
	if got := tour.NeighborhoodSize(); got != want {
		t.Fatalf("2-opt neighborhood = %d, want %d", got, want)
	}
	for idx := 0; idx < tour.NeighborhoodSize(); idx++ {
		m := tour.EvalNeighbor(idx)
		before := tour.Length()
		m.Apply()
		if math.Abs(before+m.Delta()-tour.Length()) > 1e-9 {
			t.Fatalf("neighbor %d delta mismatch", idx)
		}
		tour.EvalNeighbor(idx).Apply() // 2-opt reversal is self-inverse
		if math.Abs(tour.Length()-before) > 1e-9 {
			t.Fatalf("neighbor %d not self-inverse", idx)
		}
	}
}

func TestEnumerableOrOpt(t *testing.T) {
	r := rng.Stream("tsp-enum-oropt", 21)
	inst := RandomEuclidean(r, 8)
	tour := RandomTour(inst, r).WithMoveKind(OrOpt)
	n := tour.NeighborhoodSize()
	if n == 0 {
		t.Fatal("empty or-opt neighborhood")
	}
	for idx := 0; idx < n; idx++ {
		m := tour.EvalNeighbor(idx)
		before := tour.Length()
		m.Apply()
		if math.Abs(before+m.Delta()-tour.Length()) > 1e-9 {
			t.Fatalf("neighbor %d delta mismatch", idx)
		}
	}
	if got := inst.TourLength(tour.Order()); math.Abs(got-tour.Length()) > 1e-6 {
		t.Fatal("length drifted across enumerated applies")
	}
}

func TestRejectionlessOnTour(t *testing.T) {
	r := rng.Stream("tsp-rejless", 22)
	inst := RandomEuclidean(r, 20)
	tour := RandomTour(inst, r)
	res := core.Rejectionless{G: stubG{}}.Run(tour, core.NewBudget(50000), r)
	if res.Reduction() <= 0 {
		t.Fatal("rejectionless made no progress on TSP")
	}
}

// TestOrOptApplyMatchesSpliceReference checks the in-place rotation behind
// applyOrOpt against the splice it replaces — cut the segment out, reinsert
// it after position j — over every legal move of a small tour.
func TestOrOptApplyMatchesSpliceReference(t *testing.T) {
	const n = 9
	inst := RandomEuclidean(rng.Stream("oropt-splice", 4), n)
	start := RandomTour(inst, rng.Stream("oropt-splice-start", 4)).WithMoveKind(OrOpt)
	for l := 1; l <= 3; l++ {
		for i := 0; i+l <= n; i++ {
			for j := 0; j < n; j++ {
				if !start.orOptLegal(i, l, j) {
					continue
				}
				order := start.Order()
				seg := slices.Clone(order[i : i+l])
				rest := slices.Delete(slices.Clone(order), i, i+l)
				insertAfter := j
				if j > i {
					insertAfter -= l
				}
				want := slices.Insert(rest, insertAfter+1, seg...)

				tour := start.Clone().(*Tour)
				tour.applyOrOpt(i, l, j, 0)
				if got := tour.Order(); !slices.Equal(got, want) {
					t.Fatalf("or-opt (%d,%d,%d) on %v: got %v, want %v", i, l, j, order, got, want)
				}
			}
		}
	}
}
