package linarr

import "fmt"

// Move is a proposed, not-yet-applied modification of an Arrangement. At
// most one move may be outstanding per Arrangement: evaluating a new move
// invalidates the previous one, and applying a stale move panics. The
// method set satisfies core.Move.
//
// Moves are backed by per-arrangement storage (no heap allocation per
// proposal); an invalidated move must not be read, only discarded.
type Move interface {
	// Delta returns the change to the move's objective (Density by
	// default; TotalSpan when evaluated via an Objective-aware call).
	Delta() float64
	// DeltaInt returns the same change as an exact integer.
	DeltaInt() int
	// DensityDelta returns the density change regardless of objective.
	DensityDelta() int
	// SpanDelta returns the total-span change regardless of objective.
	SpanDelta() int
	// Apply commits the move.
	Apply()
}

// Objective selects which cost an arrangement move reports through Delta.
type Objective int

const (
	// Density is the paper's objective: the maximum gap-crossing count.
	Density Objective = iota
	// TotalSpan is the total-wirelength objective of [KANG83]-style linear
	// ordering: the sum of all net spans.
	TotalSpan
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case Density:
		return "density"
	case TotalSpan:
		return "total-span"
	default:
		return "unknown"
	}
}

// swapMove is a pairwise interchange of the cells at two positions — the
// perturbation class used throughout the paper's GOLA/NOLA experiments.
type swapMove struct {
	a         *Arrangement
	p, q      int
	delta     int
	spanDelta int
	obj       Objective
	seq       uint64
}

// reinsertMove removes the cell at position p and reinserts it at position
// q, shifting the cells in between — the paper's "single exchange" move
// ([COHO83a]).
type reinsertMove struct {
	a         *Arrangement
	p, q      int
	delta     int
	spanDelta int
	obj       Objective
	seq       uint64
}

// EvalSwap evaluates interchanging the cells at positions p and q. The
// evaluation costs O(1) per net incident to exactly one of the two cells
// plus one pass over the gaps between p and q, and does not commit until
// Apply.
func (a *Arrangement) EvalSwap(p, q int) Move { return a.EvalSwapFor(p, q, Density) }

// EvalSwapFor is EvalSwap with an explicit reporting objective.
func (a *Arrangement) EvalSwapFor(p, q int, obj Objective) Move {
	a.checkPos(p)
	a.checkPos(q)
	a.settle()
	a.seq++
	m := &a.swapMv
	*m = swapMove{a: a, p: p, q: q, obj: obj, seq: a.seq}
	if p == q {
		return m
	}
	// One pin of each net incident to exactly one of the cells moves; a net
	// holding both keeps its pin positions. Marks find those shared nets:
	// y's nets are tagged, and x's loop retags the shared ones for y's loop
	// to skip. (A merge of the two ascending net lists finds them too, but
	// its branch on which list is next mispredicts on random moves.)
	x, y := a.cellAt[p], a.cellAt[q]
	if a.netMark == nil {
		a.netMark = make([]int, a.nl.NumNets())
	}
	a.markEpoch += 2
	mark, tag := a.netMark, a.markEpoch
	ext, diff, shift := a.ext, a.tree.diff, a.tree.shift
	for _, n := range a.nl.CellNets(y) {
		mark[n] = tag
	}
	spanDelta := 0
	var posted uint64
	for _, n := range a.nl.CellNets(x) {
		if mark[n] == tag {
			mark[n] = tag + 1
			continue
		}
		// The net's other pins stay put.
		e := ext[n]
		lo, hi := e.without(p)
		lo, hi = min(lo, q), max(hi, q)
		posted |= moveSpan(diff, shift, int(e.lo), int(e.hi), lo, hi)
		spanDelta += hi - lo - e.span()
	}
	for _, n := range a.nl.CellNets(y) {
		if mark[n] == tag+1 {
			continue
		}
		e := ext[n]
		lo, hi := e.without(q)
		lo, hi = min(lo, p), max(hi, p)
		posted |= moveSpan(diff, shift, int(e.lo), int(e.hi), lo, hi)
		spanDelta += hi - lo - e.span()
	}
	a.tree.window(min(p, q), max(p, q), posted)
	m.delta = a.tree.proposedMax() - a.dens
	m.spanDelta = spanDelta
	return m
}

func (m *swapMove) Delta() float64    { return float64(m.DeltaInt()) }
func (m *swapMove) DensityDelta() int { return m.delta }
func (m *swapMove) SpanDelta() int    { return m.spanDelta }

func (m *swapMove) DeltaInt() int {
	if m.obj == TotalSpan {
		return m.spanDelta
	}
	return m.delta
}

func (m *swapMove) Apply() {
	a := m.a
	if m.seq != a.seq {
		panic("linarr: Apply on a stale swap move")
	}
	a.seq++
	x, y := a.cellAt[m.p], a.cellAt[m.q]
	a.cellAt[m.p], a.cellAt[m.q] = y, x
	a.posOf[x], a.posOf[y] = m.q, m.p
	a.rescanNets(x)
	a.rescanNets(y)
	a.commit(m.delta, m.spanDelta)
}

// EvalReinsert evaluates removing the cell at position p and reinserting it
// at position q (cells in between shift toward p). Only nets with a pin in
// the shifted window [min(p,q), max(p,q)] can change span, and each one's
// new span is O(1) from its extremes, so the evaluation costs O(nets
// incident to the window) plus one pass over the window's gaps.
func (a *Arrangement) EvalReinsert(p, q int) Move { return a.EvalReinsertFor(p, q, Density) }

// EvalReinsertFor is EvalReinsert with an explicit reporting objective.
func (a *Arrangement) EvalReinsertFor(p, q int, obj Objective) Move {
	a.checkPos(p)
	a.checkPos(q)
	a.settle()
	a.seq++
	m := &a.reinsMv
	*m = reinsertMove{a: a, p: p, q: q, obj: obj, seq: a.seq}
	if p == q {
		return m
	}
	if a.netMark == nil {
		a.netMark = make([]int, a.nl.NumNets())
	}
	a.markEpoch += 2
	mark, tag := a.netMark, a.markEpoch
	ext, diff, shift := a.ext, a.tree.diff, a.tree.shift
	// The moved cell's nets lose the pin at p and gain one at q; every other
	// pin maps through the shift, which preserves the order of positions
	// other than p, so the remaining extremes map to the new ones.
	spanDelta := 0
	var posted uint64
	for _, n := range a.nl.CellNets(a.cellAt[p]) {
		mark[n] = tag
		e := ext[n]
		lo, hi := e.without(p)
		lo, hi = min(shifted(lo, p, q), q), max(shifted(hi, p, q), q)
		posted |= moveSpan(diff, shift, int(e.lo), int(e.hi), lo, hi)
		spanDelta += hi - lo - e.span()
	}
	for pos := min(p, q); pos <= max(p, q); pos++ {
		for _, n := range a.nl.CellNets(a.cellAt[pos]) {
			if mark[n] == tag {
				continue
			}
			mark[n] = tag
			e := ext[n]
			lo, hi := shifted(int(e.lo), p, q), shifted(int(e.hi), p, q)
			posted |= moveSpan(diff, shift, int(e.lo), int(e.hi), lo, hi)
			spanDelta += hi - lo - e.span()
		}
	}
	a.tree.window(min(p, q), max(p, q), posted)
	m.delta = a.tree.proposedMax() - a.dens
	m.spanDelta = spanDelta
	return m
}

// shifted maps a position other than p to where it lands when the cell at
// p is reinserted at q.
func shifted(pos, p, q int) int {
	switch {
	case p < q && pos > p && pos <= q:
		return pos - 1
	case p > q && pos >= q && pos < p:
		return pos + 1
	default:
		return pos
	}
}

func (m *reinsertMove) Delta() float64    { return float64(m.DeltaInt()) }
func (m *reinsertMove) DensityDelta() int { return m.delta }
func (m *reinsertMove) SpanDelta() int    { return m.spanDelta }

func (m *reinsertMove) DeltaInt() int {
	if m.obj == TotalSpan {
		return m.spanDelta
	}
	return m.delta
}

func (m *reinsertMove) Apply() {
	a := m.a
	if m.seq != a.seq {
		panic("linarr: Apply on a stale reinsert move")
	}
	a.seq++
	if m.p != m.q {
		c := a.cellAt[m.p]
		if m.p < m.q {
			copy(a.cellAt[m.p:m.q], a.cellAt[m.p+1:m.q+1])
		} else {
			copy(a.cellAt[m.q+1:m.p+1], a.cellAt[m.q:m.p])
		}
		a.cellAt[m.q] = c
		lo, hi := min(m.p, m.q), max(m.p, m.q)
		for pos := lo; pos <= hi; pos++ {
			a.posOf[a.cellAt[pos]] = pos
		}
		for pos := lo; pos <= hi; pos++ {
			a.rescanNets(a.cellAt[pos])
		}
	}
	a.commit(m.delta, m.spanDelta)
}

func (a *Arrangement) checkPos(p int) {
	if p < 0 || p >= len(a.cellAt) {
		panic(fmt.Sprintf("linarr: position %d outside [0,%d)", p, len(a.cellAt)))
	}
}
