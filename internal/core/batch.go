package core

import "math/rand/v2"

// BatchEvaluator is an optional Solution capability: drawing a block of
// candidate perturbations in one call and evaluating them one at a time,
// in any order, against the committed state. An engine that decides a
// block in draw order evaluates only the candidates it decides and stops
// at the first accept, so a block costs what its decisions read; the block
// only changes the order in which the random stream is consumed (all draw
// randomness first, decision randomness after).
//
// Engines detect the capability with a type assertion and fall back to the
// serial Propose path when it is absent, so implementing it never changes
// what a solution can express.
type BatchEvaluator interface {
	Solution

	// DrawBatch draws n candidate perturbations with r — the same draw
	// recipe, in the same order, as n consecutive Propose calls — without
	// evaluating any of them. The block stays valid until the next
	// DrawBatch, Propose, or mutation of the solution.
	DrawBatch(r *rand.Rand, n int)

	// EvalBatch returns candidate i's cost change against the committed
	// state. Candidates may be evaluated in any order, and none is applied.
	// It panics if the block is stale.
	EvalBatch(i int) float64

	// ApplyBatch commits candidate i, which EvalBatch has evaluated, and
	// invalidates the rest of the block (their deltas were measured against
	// the pre-move state). It panics if the block is stale.
	ApplyBatch(i int)

	// ProposeBatch is DrawBatch(r, len(deltas)) followed by EvalBatch of
	// every candidate into deltas.
	ProposeBatch(r *rand.Rand, deltas []float64)
}
