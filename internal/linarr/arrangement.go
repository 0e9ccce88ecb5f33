// Package linarr implements linear arrangements of netlist cells and the
// density objective of the paper's §4: place the cells on a line so as to
// minimize the maximum number of nets crossing between any pair of adjacent
// positions. With two-pin nets this is the GOLA problem; with multi-pin nets
// it is NOLA (the board permutation problem of [GOTO77] and [COHO83a]).
//
// The package provides incremental evaluation of pairwise interchanges and
// single-exchange (remove/reinsert) moves at O(1) per net whose pins move
// plus one pass over the gaps between the two positions: each net's
// extreme pin positions are cached, and a move's gap-count changes are
// posted to a difference array (see segtree.go). It also provides
// deterministic local search and adapters implementing core.Solution /
// core.Descender. The proposal path performs no heap allocations.
package linarr

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"mcopt/internal/netlist"
	"mcopt/internal/rng"
)

// Arrangement is a mutable linear ordering of a netlist's cells together
// with incrementally maintained gap-crossing counts.
//
// Gap g (0 ≤ g < NumCells−1) separates positions g and g+1. A net whose
// pins span positions [lo, hi] crosses every gap in [lo, hi). The density is
// the maximum crossing count over all gaps.
//
// Each net's extreme pin positions are cached (see netExt), so a move's
// new span for a net is O(1). Gap counts live in a gapTree: an Eval* call
// posts its span changes to the tree's proposal and reads the proposed
// density; Apply commits the proposal and refreshes the moved nets'
// extremes, while the next Eval* (a rejected proposal) rolls it back
// first — committed state is never mutated by an evaluation. The seq
// counter detects stale moves, so at most one proposal is ever outstanding
// and the move structs themselves can be reused per arrangement.
type Arrangement struct {
	nl      *netlist.Netlist
	cellAt  []int    // cellAt[pos] = cell occupying the position
	posOf   []int    // posOf[cell] = the cell's position
	tree    gapTree  // gap-crossing counts (committed state + proposal)
	ext     []netExt // ext[n] = net n's extreme pin positions (committed)
	dens    int
	spanSum int // Σ over nets of (hi − lo): total wirelength

	// Proposal state and reusable move storage. An evaluation tags the nets
	// it visits in netMark with markEpoch (and a swap with markEpoch+1) after
	// advancing markEpoch by two. netMark is allocated on first use, so the
	// clones engines keep as best-so-far snapshots never carry it.
	netMark   []int
	markEpoch int
	seq       uint64
	swapMv    swapMove
	reinsMv   reinsertMove

	// batch is the lazily allocated candidate log of the outstanding
	// DrawBatch block (see batch.go); clones start without one.
	batch *batchEval
}

// netExt is a net's lowest, second-lowest, second-highest and highest pin
// positions; a two-pin net has lo2 == hi and hi2 == lo. Moving one pin
// changes the span to an O(1) function of them (without). Packed as int32
// so the table costs what the two int spans it replaced did.
type netExt struct{ lo, lo2, hi2, hi int32 }

// without returns the lowest and highest positions of the net's pins other
// than the one at position p, which must be one of its pins.
func (e netExt) without(p int) (lo, hi int) {
	lo, hi = int(e.lo), int(e.hi)
	if p == lo {
		lo = int(e.lo2)
	}
	if p == hi {
		hi = int(e.hi2)
	}
	return lo, hi
}

// span returns the net's span, hi − lo.
func (e netExt) span() int { return int(e.hi - e.lo) }

// New builds an arrangement placing cell order[i] at position i. order must
// be a permutation of 0..NumCells-1.
func New(nl *netlist.Netlist, order []int) (*Arrangement, error) {
	n := nl.NumCells()
	if len(order) != n {
		return nil, fmt.Errorf("linarr: order has %d entries, netlist has %d cells", len(order), n)
	}
	a := &Arrangement{
		nl:     nl,
		cellAt: slices.Clone(order),
		posOf:  make([]int, n),
		ext:    make([]netExt, nl.NumNets()),
	}
	a.tree.init(max(n-1, 0))
	seen := make([]bool, n)
	for pos, c := range order {
		if c < 0 || c >= n || seen[c] {
			return nil, fmt.Errorf("linarr: order is not a permutation: entry %d = %d", pos, c)
		}
		seen[c] = true
		a.posOf[c] = pos
	}
	a.recompute()
	return a, nil
}

// MustNew is New but panics on error, for generators and tests.
func MustNew(nl *netlist.Netlist, order []int) *Arrangement {
	a, err := New(nl, order)
	if err != nil {
		panic(err)
	}
	return a
}

// Random returns an arrangement with a uniformly random cell order.
func Random(nl *netlist.Netlist, r *rand.Rand) *Arrangement {
	order := make([]int, nl.NumCells())
	rng.Perm(r, order)
	return MustNew(nl, order)
}

// Identity returns the arrangement placing cell i at position i.
func Identity(nl *netlist.Netlist) *Arrangement {
	order := make([]int, nl.NumCells())
	for i := range order {
		order[i] = i
	}
	return MustNew(nl, order)
}

// recompute rebuilds extremes, gap counts and density from the permutation
// — O(total pins + gaps). Used at construction and as the test oracle's
// reference.
func (a *Arrangement) recompute() {
	counts := make([]int, a.tree.n+1)
	a.spanSum = 0
	for n := range a.ext {
		e := a.scan(n)
		a.ext[n] = e
		a.spanSum += e.span()
		counts[e.lo]++
		counts[e.hi]--
	}
	for g := 1; g < len(counts); g++ {
		counts[g] += counts[g-1]
	}
	a.tree.build(counts[:a.tree.n])
	a.dens = a.tree.proposedMax()
}

// scan computes net n's extremes from its pins' committed positions. Two-pin
// nets — every net in the GOLA regime — take a loop-free fast path.
func (a *Arrangement) scan(n int) netExt {
	pins := a.nl.Net(n)
	if len(pins) == 2 {
		p0, p1 := int32(a.posOf[pins[0]]), int32(a.posOf[pins[1]])
		if p0 > p1 {
			p0, p1 = p1, p0
		}
		return netExt{lo: p0, lo2: p1, hi2: p0, hi: p1}
	}
	// Branch-free: the two smallest and two largest so far take p in with
	// min and max alone.
	lo, lo2 := int32(math.MaxInt32), int32(math.MaxInt32)
	hi, hi2 := int32(-1), int32(-1)
	for _, c := range pins {
		p := int32(a.posOf[c])
		lo2 = min(lo2, max(lo, p))
		lo = min(lo, p)
		hi2 = max(hi2, min(hi, p))
		hi = max(hi, p)
	}
	return netExt{lo: lo, lo2: lo2, hi2: hi2, hi: hi}
}

// rescanNets refreshes the extremes of every net incident to cell c after c
// or its neighbours moved. A rescan is idempotent, so nets reached from
// several moved cells need no dedup.
func (a *Arrangement) rescanNets(c int) {
	for _, n := range a.nl.CellNets(c) {
		a.ext[n] = a.scan(n)
	}
}

// settle discards an un-applied outstanding proposal; a no-op when none is
// outstanding.
func (a *Arrangement) settle() { a.tree.rollback() }

// commit promotes the outstanding proposal: the tree applies it and the
// objective values are updated. The caller has already moved the cells and
// refreshed the moved nets' extremes.
func (a *Arrangement) commit(delta, spanDelta int) {
	a.tree.commitProposal()
	a.dens += delta
	a.spanSum += spanDelta
}

// Density returns the current maximum gap-crossing count — the objective of
// both GOLA and NOLA.
func (a *Arrangement) Density() int { return a.dens }

// TotalSpan returns the sum over nets of their position spans — the total
// wirelength objective of the linear-ordering placement formulations the
// paper's §4.1 cites ([KANG83]). It equals the sum of all gap-crossing
// counts.
func (a *Arrangement) TotalSpan() int { return a.spanSum }

// NumCells returns the number of placed cells.
func (a *Arrangement) NumCells() int { return a.nl.NumCells() }

// Netlist returns the underlying (immutable) netlist.
func (a *Arrangement) Netlist() *netlist.Netlist { return a.nl }

// CellAt returns the cell occupying the given position.
func (a *Arrangement) CellAt(pos int) int { return a.cellAt[pos] }

// PosOf returns the position of the given cell.
func (a *Arrangement) PosOf(cell int) int { return a.posOf[cell] }

// Order returns a copy of the current cell order (position → cell).
func (a *Arrangement) Order() []int { return slices.Clone(a.cellAt) }

// GapCut returns the committed crossing count of gap g in O(1), for
// diagnostics and tests. Proposals live in the tree's difference array, so
// an evaluated-but-unapplied move stays valid across the call.
func (a *Arrangement) GapCut(g int) int { return a.tree.committedAt(g) }

// Clone returns a deep copy sharing only the immutable netlist. The copy is
// in committed state: an outstanding proposal on the receiver is not
// carried over (the receiver and its pending move are untouched).
func (a *Arrangement) Clone() *Arrangement {
	return &Arrangement{
		nl:      a.nl,
		cellAt:  slices.Clone(a.cellAt),
		posOf:   slices.Clone(a.posOf),
		tree:    a.tree.clone(),
		ext:     slices.Clone(a.ext),
		dens:    a.dens,
		spanSum: a.spanSum,
	}
}
