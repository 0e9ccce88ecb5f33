// Package problem is the public plugin API for optimization domains: the
// Solution/Move contract the search engines run against, plus a registry
// that turns a JSON problem spec into a runnable instance.
//
// The paper applies the same twenty acceptance-function classes to linear
// arrangement, circuit partitioning and the TSP; the engines in
// internal/core are deliberately problem-agnostic so that the set of
// domains can keep growing. This package makes that extension point
// public. A new domain implements Solution (and optionally Descender,
// Enumerable, or BatchEvaluator for the richer strategies), registers a
// Definition under a kind name, and is from that moment servable by the
// mcoptd job API — the service layer resolves ProblemSpec.Kind through the
// registry and needs no edits. internal/maxcut is the worked example; the
// README's "Adding a problem" walkthrough builds it from scratch.
//
// Registration is typically done from an init function:
//
//	func init() { problem.Register(problem.Definition{Kind: "maxcut", ...}) }
//
// and activated by importing the package for side effects (the
// image/png idiom). mcopt/problem/builtin pulls in every built-in domain.
package problem

import (
	"mcopt/internal/core"
	"mcopt/internal/gfunc"
)

// The engine-facing contracts, re-exported from the engine package so that
// a plugin only ever imports mcopt/problem. See the originals for the full
// method-by-method semantics.
type (
	// Solution is a mutable candidate solution to a minimization problem;
	// see core.Solution. This is the one required interface.
	Solution = core.Solution
	// Move is a proposed, not-yet-applied perturbation; see core.Move.
	Move = core.Move
	// Descender adds deterministic local search, required by the Figure-2
	// strategy; see core.Descender.
	Descender = core.Descender
	// Enumerable adds whole-neighborhood enumeration, required by the
	// Rejectionless strategy; see core.Enumerable.
	Enumerable = core.Enumerable
	// BatchEvaluator adds block proposal draws with candidates evaluated
	// one at a time, used by the Figure-1 and tempering engines when
	// Batch > 1; see core.BatchEvaluator.
	BatchEvaluator = core.BatchEvaluator
	// Budget meters attempted perturbations; Descend implementations charge
	// it per evaluation. See core.Budget.
	Budget = core.Budget
	// Scale characterizes a problem's cost magnitudes so schedule defaults
	// can be derived before tuning; see gfunc.Scale.
	Scale = gfunc.Scale
)

// Spec is the problem block of an mcoptd job spec: a kind name plus the
// generator parameterization (or inline instance text) that pins one
// concrete instance. The field set is deliberately closed and generic —
// sizes, a seed, and an optional instance body — so that every kind's spec
// normalizes, validates, and fingerprints the same way; a kind documents
// which fields it reads. Kinds that read none of the generic fields can
// encode their instance in Netlist (any text format they can parse).
type Spec struct {
	// Kind selects the registered problem definition.
	Kind string `json:"kind"`
	// Cells and Nets size generated netlist instances (gola, nola,
	// partition) and double as vertices/edges for graph kinds (maxcut).
	Cells int `json:"cells,omitempty"`
	Nets  int `json:"nets,omitempty"`
	// MinPins and MaxPins bound generated net sizes for nola and partition
	// (defaults 2–8 and 2–4, matching olagen and the X1 suite).
	MinPins int `json:"min_pins,omitempty"`
	MaxPins int `json:"max_pins,omitempty"`
	// N is the number of sites for tsp and pmedian; P the medians to place.
	N int `json:"n,omitempty"`
	P int `json:"p,omitempty"`
	// Netlist, when non-empty, is an inline instance in the kind's text
	// format and overrides the generator fields. Only kinds whose
	// Definition sets Netlist accept it.
	Netlist string `json:"netlist,omitempty"`
	// Seed seeds the instance generator (default 1).
	Seed uint64 `json:"seed,omitempty"`
}

// Instance is a compiled Spec: the concrete problem plus the factories a
// job runner needs. Compiling must be deterministic — the instance and
// every replica's starting state depend only on (Spec, job seed) — because
// the service's resume-after-crash contract replays replicas by index and
// requires byte-identical results.
type Instance struct {
	// Desc is the human description used in status output and artifacts,
	// e.g. "gola (15 cells, 150 nets)".
	Desc string
	// Scale anchors default temperature schedules on this instance's cost
	// regime.
	Scale Scale
	// NewSolution returns replica run's fresh starting state. Successive
	// calls with the same run must return equal states (typically via a
	// run-indexed derived RNG stream).
	NewSolution func(run int) Solution
	// Encode flattens a best solution into the result artifact's integer
	// encoding (cell order, side assignment, tour order, chosen medians,
	// cut sides, ...).
	Encode func(best Solution) []int
	// Nets is the net count fed to the [COHO83a] acceptance function; zero
	// for kinds where that class does not apply.
	Nets int
}

// Definition is one registered problem kind: the spec lifecycle (default,
// check, compile) the service applies to every job naming this kind. All
// three funcs are required.
//
// Determinism contract: Compile must derive the instance and all
// randomness from (spec, jobSeed) via named rng streams only — no global
// state, no wall clock — so that identical specs produce byte-identical
// results on any machine, in any run, resumed or not.
type Definition struct {
	// Kind is the registry key and the value of Spec.Kind, e.g. "maxcut".
	Kind string
	// Netlist reports that the kind reads the inline Netlist field and
	// exposes a net count for the [COHO83a] acceptance class. Specs naming
	// an inline netlist for a non-Netlist kind are rejected by the service.
	Netlist bool
	// Normalize fills defaulted Spec fields in place. It must be
	// idempotent: the service persists normalized specs and fingerprints
	// them.
	Normalize func(p *Spec)
	// Validate reports the first problem with a normalized Spec. It must
	// not mutate the Spec.
	Validate func(p *Spec) error
	// Compile builds the instance a normalized, validated Spec describes.
	// jobSeed is the job-level seed that parameterizes per-replica starting
	// states (distinct from Spec.Seed, which pins the instance itself).
	Compile func(p *Spec, jobSeed uint64) (*Instance, error)
}
