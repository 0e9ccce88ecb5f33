package linarr

import "slices"

// gapTree holds the arrangement's per-gap crossing counts, committed, plus
// the outstanding proposal as a difference array over the gaps. It is the
// evaluation kernel's core data structure.
//
// Committed state is the exact count of every gap and the maximum of each
// block of gaps — a power of two ≥ √n gaps (min 16), at most 64 blocks. A
// proposal's range-add [l, r)+d is two increments, diff[l] += d and
// diff[r] −= d, and widens the proposal's hull — the smallest gap range
// covering every posted range; a move instead opens its window as the hull
// and posts each net's span change as four increments (moveSpan). The
// proposed density is one prefix pass over the blocks the hull touches,
// adding the running sum of diff to each committed count, plus the
// committed maxima of the blocks outside it. A 64-bit mask marks the
// blocks holding a diff entry; the pass takes any other block's committed
// maximum plus the running sum without walking its gaps. A pairwise
// interchange or reinsertion of positions p and q changes only gaps inside
// [min(p,q), max(p,q)), so it costs O(1) per net plus one pass over that
// window.
//
// Proposals never mutate committed state: rolling one back clears diff over
// the hull; committing applies the pass to the committed counts and
// rescans the maxima of the blocks it covered.
type gapTree struct {
	n      int  // number of gaps
	shift  uint // log2 of the block size
	blocks int

	// Committed state.
	cut      []int
	blockMax []int

	// Outstanding proposal: diff has n+1 entries, nonzero only inside
	// [hullLo, hullHi]; the hull is empty when hullLo ≥ hullHi. Bit b of
	// posted is clear when block b holds no diff entry, so the pass can
	// take the block's committed maximum instead of walking its gaps.
	diff           []int
	hullLo, hullHi int
	posted         uint64
}

// init sizes the tree for n gaps (n may be 0 for a single-cell
// arrangement) with all counts zero. All proposal-path storage is
// allocated here once; evaluation never allocates.
func (t *gapTree) init(n int) {
	t.n = n
	t.shift = 4
	for 1<<(2*t.shift) < n || n>>t.shift >= 64 {
		t.shift++
	}
	t.blocks = (n + 1<<t.shift - 1) >> t.shift
	t.cut = make([]int, n)
	t.blockMax = make([]int, t.blocks)
	t.diff = make([]int, n+1)
	t.hullLo, t.hullHi = n, 0
}

// build resets committed state to the given counts (len(values) == n) and
// discards any outstanding proposal.
func (t *gapTree) build(values []int) {
	copy(t.cut, values)
	t.rescan(0, t.blocks)
	t.rollback()
}

// rescan recomputes the committed maxima of blocks [b0, b1).
func (t *gapTree) rescan(b0, b1 int) {
	for b := b0; b < b1; b++ {
		lo := b << t.shift
		t.blockMax[b] = maxOf(t.cut[lo:min(lo+1<<t.shift, t.n)])
	}
}

// rangeAdd adds d to every gap in the half-open range [l, r) as part of
// the outstanding proposal, widening its hull. Empty ranges are dropped.
func (t *gapTree) rangeAdd(l, r, d int) {
	if l >= r {
		return
	}
	t.diff[l] += d
	t.diff[r] -= d
	t.posted |= blockBit(l, t.shift) | blockBit(r, t.shift)
	t.hullLo = min(t.hullLo, l)
	t.hullHi = max(t.hullHi, r)
}

// window widens the proposal's hull to the gaps [l, r) and marks the
// blocks in posted as holding diff entries. A move posts with moveSpan,
// which tracks neither, and then opens its window.
func (t *gapTree) window(l, r int, posted uint64) {
	t.hullLo = min(t.hullLo, l)
	t.hullHi = max(t.hullHi, r)
	t.posted |= posted
}

// moveSpan proposes, in a tree's diff array with the given block shift,
// that a net spanning [oldLo, oldHi) now span [lo, hi): the gaps between
// each old and new endpoint gain or lose one crossing. That is four
// increments, with no branch on which way an endpoint moved; an unchanged
// endpoint's pair cancels. It returns the mask bits of the blocks written,
// which the caller accumulates for window. Every changed endpoint must lie
// inside the window. It takes the tree's arrays rather than the tree so a
// move's loop keeps them in registers.
func moveSpan(diff []int, shift uint, oldLo, oldHi, lo, hi int) uint64 {
	diff[lo]++
	diff[oldLo]--
	diff[oldHi]++
	diff[hi]--
	return blockBit(lo, shift) | blockBit(oldLo, shift) | blockBit(oldHi, shift) | blockBit(hi, shift)
}

// blockBit returns gap g's block bit in the posted mask. The entry at
// g == n may map to a bit the pass never reads, or to block 0's; a spare
// bit only costs a walk over that block.
func blockBit(g int, shift uint) uint64 { return 1 << (uint(g>>shift) & 63) }

// span returns the blocks [b0, b1) the hull touches; the committed counts
// outside them are unchanged by the proposal.
func (t *gapTree) span() (b0, b1 int) {
	return t.hullLo >> t.shift, (t.hullHi-1)>>t.shift + 1
}

// proposedMax returns the maximum gap count with the outstanding proposal
// applied (the committed maximum when none is outstanding).
func (t *gapTree) proposedMax() int {
	if t.hullLo >= t.hullHi {
		return maxOf(t.blockMax)
	}
	b0, b1 := t.span()
	m := max(maxOf(t.blockMax[:b0]), maxOf(t.blockMax[b1:]))
	s := 0
	for b := b0; b < b1; b++ {
		if t.posted>>b&1 == 0 {
			// No diff entry in the block: every count shifts by s.
			m = max(m, t.blockMax[b]+s)
			continue
		}
		lo := b << t.shift
		cut, diff := t.cut[lo:min(lo+1<<t.shift, t.n)], t.diff[lo:]
		for g, c := range cut {
			s += diff[g]
			m = max(m, c+s)
		}
	}
	return m
}

// rollback discards the outstanding proposal in O(hull).
func (t *gapTree) rollback() {
	if t.hullLo < t.hullHi {
		clear(t.diff[t.hullLo : t.hullHi+1])
	}
	t.hullLo, t.hullHi = t.n, 0
	t.posted = 0
}

// commitProposal applies the outstanding proposal to the committed counts
// and rescans the maxima of the blocks its hull touches.
func (t *gapTree) commitProposal() {
	if t.hullLo >= t.hullHi {
		return
	}
	s := 0
	for g := t.hullLo; g < t.hullHi; g++ {
		s += t.diff[g]
		t.cut[g] += s
	}
	b0, b1 := t.span()
	t.rescan(b0, b1)
	t.rollback()
}

// committedAt returns the committed count of gap g, ignoring any
// outstanding proposal.
func (t *gapTree) committedAt(g int) int { return t.cut[g] }

// clone returns an independent copy of the committed state with no
// outstanding proposal.
func (t *gapTree) clone() gapTree {
	return gapTree{
		n: t.n, shift: t.shift, blocks: t.blocks,
		cut:      slices.Clone(t.cut),
		blockMax: slices.Clone(t.blockMax),
		diff:     make([]int, t.n+1),
		hullLo:   t.n,
	}
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
