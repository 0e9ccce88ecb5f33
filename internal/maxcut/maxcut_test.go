package maxcut

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"mcopt/internal/core"
	"mcopt/internal/gfunc"
	"mcopt/internal/rng"
)

func testGraph(t *testing.T) *Instance {
	t.Helper()
	return MustNew(5, []Edge{
		{0, 1, 1}, {1, 2, -1}, {2, 3, 1}, {3, 4, 1}, {4, 0, 1}, {0, 3, -1},
	})
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"zero vertices", 0, nil},
		{"too many vertices", MaxVertices + 1, nil},
		{"endpoint out of range", 3, []Edge{{0, 3, 1}}},
		{"negative endpoint", 3, []Edge{{-1, 2, 1}}},
		{"self loop", 3, []Edge{{1, 1, 1}}},
	}
	for _, c := range cases {
		if _, err := New(c.n, c.edges); err == nil {
			t.Errorf("%s: New accepted invalid input", c.name)
		}
	}
	if _, err := New(2, []Edge{{0, 1, 7}}); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestRandomProperties(t *testing.T) {
	g := Random(rng.Stream("test/maxcut", 1), 20, 60)
	if g.N() != 20 || g.M() != 60 {
		t.Fatalf("got %d vertices, %d edges, want 20, 60", g.N(), g.M())
	}
	seen := map[[2]int]bool{}
	for _, e := range g.Edges() {
		if e.U == e.V {
			t.Fatalf("self loop %v", e)
		}
		if e.W != 1 && e.W != -1 {
			t.Fatalf("weight %d, want ±1", e.W)
		}
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			t.Fatalf("duplicate edge (%d,%d)", u, v)
		}
		seen[[2]int{u, v}] = true
	}
	// Requesting more edges than the complete graph holds caps cleanly.
	k := Random(rng.Stream("test/maxcut", 2), 4, 100)
	if k.M() != 6 {
		t.Fatalf("overfull request produced %d edges, want 6", k.M())
	}
}

func TestCutWeightMatchesBruteForce(t *testing.T) {
	g := testGraph(t)
	c, err := NewCut(g, []int{0, 1, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Crossing edges: (0,1)+1, (1,2)−1, (2,3)+1, (3,4)+1, (0,3)−1 = +1.
	if c.Weight() != 1 {
		t.Fatalf("weight %d, want 1", c.Weight())
	}
	if c.Weight() != c.computeWeight() {
		t.Fatalf("maintained %d vs recomputed %d", c.Weight(), c.computeWeight())
	}
}

func TestNewCutValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := NewCut(g, []int{0, 1}); err == nil {
		t.Fatal("accepted short side slice")
	}
	if _, err := NewCut(g, []int{0, 1, 2, 0, 1}); err == nil {
		t.Fatal("accepted side value 2")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := testGraph(t)
	c := RandomCut(g, rng.Stream("test/clone", 1))
	d := c.Clone()
	before := d.Weight()
	c.Flip(2)
	if d.Weight() != before || d.Side(2) == c.Side(2) && c.FlipDelta(2) == 0 {
		t.Fatal("clone shares state with original")
	}
	if d.Weight() != d.computeWeight() {
		t.Fatal("clone weight inconsistent")
	}
}

func TestSolutionCostAndMoves(t *testing.T) {
	g := testGraph(t)
	c := RandomCut(g, rng.Stream("test/sol", 3))
	s := NewSolution(c)
	if got, want := s.Cost(), float64(g.PositiveWeight()-c.Weight()); got != want {
		t.Fatalf("cost %v, want %v", got, want)
	}
	r := rng.Stream("test/sol/moves", 1)
	for i := 0; i < 50; i++ {
		before := s.Cost()
		m := s.Propose(r)
		delta := m.Delta()
		m.Apply()
		if got := s.Cost() - before; got != delta {
			t.Fatalf("move %d: promised delta %v, observed %v", i, delta, got)
		}
	}
}

func TestStaleMovePanics(t *testing.T) {
	s := NewSolution(RandomCut(testGraph(t), rng.Stream("test/stale", 1)))
	r := rng.Stream("test/stale/moves", 1)
	m := s.Propose(r)
	s.Propose(r).Apply()
	defer func() {
		if recover() == nil {
			t.Fatal("Apply on a stale move did not panic")
		}
	}()
	m.Apply()
}

func TestDescendReachesLocalOptimum(t *testing.T) {
	g := Random(rng.Stream("test/descend", 1), 30, 90)
	s := NewSolution(RandomCut(g, rng.Stream("test/descend/start", 1)))
	if !s.Descend(core.NewBudget(1_000_000)) {
		t.Fatal("budget died before local optimum")
	}
	for v := 0; v < g.N(); v++ {
		if s.Cut().FlipDelta(v) > 0 {
			t.Fatalf("vertex %d still improves after Descend", v)
		}
	}
	// A dead budget is reported honestly.
	s2 := NewSolution(RandomCut(g, rng.Stream("test/descend/start", 2)))
	if s2.Descend(core.NewBudget(3)) {
		t.Fatal("Descend claimed certification on a 3-move budget")
	}
}

func TestEnumerableMatchesPropose(t *testing.T) {
	g := testGraph(t)
	s := NewSolution(RandomCut(g, rng.Stream("test/enum", 1)))
	if s.NeighborhoodSize() != g.N() {
		t.Fatalf("neighborhood %d, want %d", s.NeighborhoodSize(), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if got, want := s.EvalNeighbor(v).Delta(), float64(-s.Cut().FlipDelta(v)); got != want {
			t.Fatalf("neighbor %d: delta %v, want %v", v, got, want)
		}
	}
}

func TestBatchMatchesSerial(t *testing.T) {
	g := Random(rng.Stream("test/batch", 1), 40, 160)
	start := RandomCut(g, rng.Stream("test/batch/start", 1))
	s1, s2 := NewSolution(start.Clone()), NewSolution(start.Clone())
	r1 := rng.Stream("test/batch/run", 7)
	r2 := rng.Stream("test/batch/run", 7)
	deltas := make([]float64, 16)
	s1.ProposeBatch(r1, deltas)
	for i := range deltas {
		if got := s2.Propose(r2).Delta(); got != deltas[i] {
			t.Fatalf("candidate %d: batch delta %v, serial delta %v", i, deltas[i], got)
		}
	}
	s1.ApplyBatch(3)
	if s1.Cut().Weight() != s1.Cut().computeWeight() {
		t.Fatal("ApplyBatch left an inconsistent weight")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ApplyBatch on an invalidated batch did not panic")
		}
	}()
	s1.ApplyBatch(4)
}

// TestEvalBatchMatchesProposeBatch pins the lazy protocol to the eager
// one: DrawBatch consumes the stream exactly as ProposeBatch does,
// EvalBatch(i) in any order returns ProposeBatch's deltas[i], ApplyBatch
// after EvalBatch(i) leaves the state ProposeBatch's ApplyBatch(i) leaves,
// and a stale EvalBatch panics.
func TestEvalBatchMatchesProposeBatch(t *testing.T) {
	g := Random(rng.Stream("test/lazy", 1), 40, 160)
	start := RandomCut(g, rng.Stream("test/lazy/start", 1))
	lazy, eager := NewSolution(start.Clone()), NewSolution(start.Clone())
	rl, re := rng.Stream("test/lazy/run", 3), rng.Stream("test/lazy/run", 3)
	pick := rng.Stream("test/lazy/pick", 1)
	deltas := make([]float64, 8)
	for round := 0; round < 40; round++ {
		eager.ProposeBatch(re, deltas)
		lazy.DrawBatch(rl, len(deltas))
		if rl.Uint64() != re.Uint64() {
			t.Fatalf("round %d: DrawBatch left the stream elsewhere than ProposeBatch", round)
		}
		for _, i := range pick.Perm(len(deltas)) {
			if got := lazy.EvalBatch(i); got != deltas[i] {
				t.Fatalf("round %d: EvalBatch(%d) = %v, ProposeBatch %v", round, i, got, deltas[i])
			}
		}
		i := pick.IntN(len(deltas))
		lazy.ApplyBatch(i)
		eager.ApplyBatch(i)
		if !slices.Equal(lazy.Cut().Sides(), eager.Cut().Sides()) || lazy.CutWeight() != eager.CutWeight() ||
			lazy.Cut().computeWeight() != lazy.CutWeight() {
			t.Fatalf("round %d: states diverged after ApplyBatch(%d)", round, i)
		}
	}
	for name, stale := range map[string]func(){
		"after commit":  func() { lazy.DrawBatch(rl, 4); lazy.EvalBatch(1); lazy.ApplyBatch(1) },
		"after Propose": func() { lazy.DrawBatch(rl, 4); lazy.Propose(rl) },
		"after Descend": func() { lazy.DrawBatch(rl, 4); lazy.Descend(core.NewBudget(1)) },
		"out of range":  func() { lazy.DrawBatch(rl, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			stale()
			defer func() {
				if recover() == nil {
					t.Fatal("EvalBatch on a stale batch did not panic")
				}
			}()
			lazy.EvalBatch(0)
		})
	}
}

// TestEngineImprovesCut runs the real Figure-1 engine with g = 1 and checks
// the search actually raises the cut weight on a nontrivial instance — the
// end-to-end sanity a plugin must pass before it is worth serving.
func TestEngineImprovesCut(t *testing.T) {
	g := Random(rng.Stream("test/engine", 1), 60, 240)
	s := NewSolution(RandomCut(g, rng.Stream("test/engine/start", 1)))
	startW := s.CutWeight()
	res := core.Figure1{G: gfunc.One()}.Run(s, core.NewBudget(20_000), rng.Stream("test/engine/run", 1))
	bestW := res.Best.(*Solution).CutWeight()
	if bestW <= startW {
		t.Fatalf("cut weight did not improve: %d -> %d", startW, bestW)
	}
	if got, want := res.BestCost, float64(g.PositiveWeight()-bestW); got != want {
		t.Fatalf("BestCost %v inconsistent with best cut %d", got, bestW)
	}
}

func TestGreedy(t *testing.T) {
	g := Random(rng.Stream("test/greedy", 1), 50, 200)
	c, err := NewCut(g, Greedy(g))
	if err != nil {
		t.Fatalf("Greedy produced invalid sides: %v", err)
	}
	r := RandomCut(g, rng.Stream("test/greedy/rand", 1))
	if c.Weight() <= r.Weight() {
		t.Fatalf("greedy cut %d not above random cut %d", c.Weight(), r.Weight())
	}
	// With all-nonnegative weights the sweep carries the classic guarantee:
	// each vertex captures at least half its placed incident weight, so the
	// cut is at least half the total weight.
	pos := make([]Edge, 0, g.M())
	for _, e := range g.Edges() {
		e.W = 1
		pos = append(pos, e)
	}
	gp := MustNew(g.N(), pos)
	cp, err := NewCut(gp, Greedy(gp))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Weight()*2 < int64(gp.M()) {
		t.Fatalf("greedy cut %d below the m/2 guarantee (m = %d)", cp.Weight(), gp.M())
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := Random(rng.Stream("test/textio", 1), 12, 30)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	back, err := Read(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := Write(&again, back); err != nil {
		t.Fatal(err)
	}
	if again.String() != first {
		t.Fatal("Write/Read/Write did not round-trip")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"empty", ""},
		{"edge before vertices", "edge 0 1 1\n"},
		{"bad count", "vertices x\n"},
		{"duplicate header", "vertices 2\nvertices 2\n"},
		{"short edge", "vertices 2\nedge 0 1\n"},
		{"bad weight", "vertices 2\nedge 0 1 w\n"},
		{"unknown directive", "vertices 2\nnet 0 1\n"},
		{"out of range", "vertices 2\nedge 0 2 1\n"},
		{"self loop", "vertices 2\nedge 1 1 1\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.text)); err == nil {
			t.Errorf("%s: Read accepted %q", c.name, c.text)
		}
	}
	ok := "# comment\n\nvertices 3\nedge 0 1 1\nedge 1 2 -2\n"
	g, err := Read(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("valid text rejected: %v", err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("parsed %d/%d, want 3/2", g.N(), g.M())
	}
}
