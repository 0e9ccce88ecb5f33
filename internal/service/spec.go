// Package service is the long-running deployment surface of the library: a
// job manager that wraps the deterministic execution layer (internal/sched)
// in a bounded-concurrency queue of optimization jobs, and an HTTP API that
// submits, observes, streams, and cancels them.
//
// A job is a JSON spec naming a problem (any kind in the mcopt/problem
// registry — the built-in generators, an inline netlist, or a plugin
// domain registered by the embedding binary), a search strategy (Figure 1,
// Figure 2, or parallel tempering), a g class, a move budget, a replica
// count, and a seed. The service layer contains no per-problem code:
// ProblemSpec.Kind resolves through the registry, so registering a kind
// makes it servable with no edits here. The
// manager persists every job under its data directory, journals each
// completed replica through internal/checkpoint, and writes result
// artifacts through internal/atomicio — so a killed server resumes its
// in-flight jobs on restart and a resumed job's result is byte-identical to
// an uninterrupted run. See DESIGN.md §10 and §13.
package service

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"mcopt/internal/checkpoint"
	"mcopt/internal/core"
	"mcopt/internal/gfunc"
	"mcopt/problem"
)

// Names of the problem kinds that ship with the library, as accepted in a
// ProblemSpec. The set of servable kinds is open: it is whatever the
// problem registry holds at submit time.
const (
	KindGOLA      = "gola"      // graph optimal linear arrangement (two-pin nets)
	KindNOLA      = "nola"      // network OLA (multi-pin nets)
	KindPartition = "partition" // balanced two-way circuit partition
	KindTSP       = "tsp"       // Euclidean travelling salesman
	KindPMedian   = "pmedian"   // p-median facility location
	KindMaxCut    = "maxcut"    // weighted maximum cut
)

// ProblemSpec names the instance a job optimizes: a registered kind plus
// its generator parameterization (sizes + seed) or, for kinds that read
// the text netlist format, an inline instance. It is the problem package's
// Spec; the alias keeps the service API self-contained.
type ProblemSpec = problem.Spec

// JobSpec is the unit of work a client submits: one problem, one method,
// Runs independent replicas under equal budgets (the paper's repetition
// discipline), reported as per-run results plus the best replica.
type JobSpec struct {
	Problem ProblemSpec `json:"problem"`
	// Strategy is "fig1" (default), "fig2", or "tempering" (parallel
	// tempering: Chains coupled Figure-1 walks with replica exchange).
	Strategy string `json:"strategy,omitempty"`
	// Chains is the replica-exchange chain count for the tempering strategy
	// (default 4). Only valid with strategy "tempering".
	Chains int `json:"chains,omitempty"`
	// ExchangeEvery is the tempering round length: moves each chain runs
	// between exchange attempts (default 256). Only valid with "tempering".
	ExchangeEvery int64 `json:"exchange_every,omitempty"`
	// Batch, when > 1, makes engines draw proposals in blocks of Batch on
	// solutions that support batched evaluation (GOLA/NOLA, maxcut); each
	// block is evaluated only up to its first accept. It changes the order
	// of the random stream, not the cost per move. Valid with "fig1" and
	// "tempering".
	Batch int `json:"batch,omitempty"`
	// G is the g-class row label from the paper's tables (default "g = 1"),
	// or "[COHO83a]" for the Cohoon–Sahni function on netlist problems.
	G string `json:"g,omitempty"`
	// Ys, when non-empty, is an explicit temperature schedule; its length
	// must match the class's level count. Empty derives the class default
	// from the instance's own cost scale.
	Ys []float64 `json:"ys,omitempty"`
	// Budget is the move allowance per replica (default 2400, the paper's
	// 12 VAX seconds).
	Budget int64 `json:"budget,omitempty"`
	// Runs is the number of independent replicas (default 1). Each replica
	// is one scheduler cell and one checkpoint record.
	Runs int `json:"runs,omitempty"`
	// Seed seeds the per-replica random streams (default 1).
	Seed uint64 `json:"seed,omitempty"`
}

// maxRuns bounds a single job's replica count; a grid any larger belongs in
// several jobs, where the queue can interleave them fairly.
const maxRuns = 10_000

// Normalize fills defaulted fields in place. It is idempotent and is applied
// on submit, so persisted specs — and therefore checkpoint fingerprints —
// are always in normal form. The problem block is normalized by its
// registered kind; an unknown kind is left untouched for Validate to
// reject.
func (s *JobSpec) Normalize() {
	if s.Strategy == "" {
		s.Strategy = "fig1"
	}
	if s.Strategy == "tempering" {
		if s.Chains == 0 {
			s.Chains = 4
		}
		if s.ExchangeEvery == 0 {
			s.ExchangeEvery = 256
		}
	}
	if s.G == "" {
		s.G = "g = 1"
	}
	if s.Budget == 0 {
		s.Budget = 2400
	}
	if s.Runs == 0 {
		s.Runs = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	p := &s.Problem
	if p.Seed == 0 {
		p.Seed = 1
	}
	if d, ok := problem.Lookup(p.Kind); ok {
		d.Normalize(p)
	}
}

// Validate reports the first problem with a normalized spec. It never
// mutates the spec; callers Normalize first.
func (s *JobSpec) Validate() error {
	switch s.Strategy {
	case "fig1", "fig2", "tempering":
	default:
		return fmt.Errorf("unknown strategy %q (want fig1, fig2 or tempering)", s.Strategy)
	}
	if s.Strategy == "tempering" {
		if s.Chains < 1 || s.Chains > 256 {
			return fmt.Errorf("chains %d out of range [1,256]", s.Chains)
		}
		if s.ExchangeEvery < 1 {
			return fmt.Errorf("exchange_every %d must be positive", s.ExchangeEvery)
		}
	} else {
		if s.Chains != 0 {
			return fmt.Errorf("chains applies only to strategy tempering")
		}
		if s.ExchangeEvery != 0 {
			return fmt.Errorf("exchange_every applies only to strategy tempering")
		}
	}
	if s.Batch != 0 {
		if s.Strategy == "fig2" {
			return fmt.Errorf("batch does not apply to strategy fig2")
		}
		if s.Batch < 2 || s.Batch > 4096 {
			return fmt.Errorf("batch %d out of range [2,4096]", s.Batch)
		}
	}
	if s.Budget < 1 {
		return fmt.Errorf("budget %d must be positive", s.Budget)
	}
	if s.Runs < 1 || s.Runs > maxRuns {
		return fmt.Errorf("runs %d out of range [1,%d]", s.Runs, maxRuns)
	}
	for i, y := range s.Ys {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return fmt.Errorf("ys[%d] is not finite", i)
		}
	}
	p := &s.Problem
	d, ok := problem.Lookup(p.Kind)
	if !ok {
		return fmt.Errorf("unknown problem kind %q (registered: %s)", p.Kind, strings.Join(problem.Kinds(), ", "))
	}
	if err := d.Validate(p); err != nil {
		return err
	}
	if p.Netlist != "" && !d.Netlist {
		return fmt.Errorf("%s: inline netlist is not supported by this problem kind", p.Kind)
	}
	if s.G == cohoonSahniName {
		if !d.Netlist {
			return fmt.Errorf("%s applies only to netlist problems", cohoonSahniName)
		}
		if len(s.Ys) != 0 {
			return fmt.Errorf("%s takes no schedule", cohoonSahniName)
		}
		return nil
	}
	b, ok := gfunc.ByName(s.G)
	if !ok {
		return fmt.Errorf("unknown g class %q (use the paper's table labels)", s.G)
	}
	if len(s.Ys) > 0 {
		if !b.NeedsY {
			return fmt.Errorf("g class %q takes no schedule", s.G)
		}
		if len(s.Ys) != b.K {
			return fmt.Errorf("g class %q needs %d levels, got %d", s.G, b.K, len(s.Ys))
		}
	}
	return nil
}

const cohoonSahniName = "[COHO83a]"

// Fingerprint hashes every field that shapes the job's grid or its cell
// results, in the checkpoint layer's canonical style. Two jobs with equal
// normalized specs share a fingerprint; any parameter change produces a new
// one, so a stale journal can never be replayed into a different job shape.
// The registered kind is folded in through p.Kind, so two kinds reading the
// same generic fields can never collide; the field order and version tag
// predate the problem registry and are frozen — changing either would
// orphan every existing journal (TestSpecCompatGolden pins this).
func (s *JobSpec) Fingerprint() uint64 {
	p := &s.Problem
	ys := make([]string, len(s.Ys))
	for i, y := range s.Ys {
		ys[i] = strconv.FormatFloat(y, 'g', -1, 64)
	}
	return checkpoint.Fingerprint(
		"service/job/v2",
		p.Kind, strconv.Itoa(p.Cells), strconv.Itoa(p.Nets),
		strconv.Itoa(p.MinPins), strconv.Itoa(p.MaxPins),
		strconv.Itoa(p.N), strconv.Itoa(p.P),
		p.Netlist, strconv.FormatUint(p.Seed, 10),
		s.Strategy, s.G, strings.Join(ys, ","),
		strconv.FormatInt(s.Budget, 10),
		strconv.Itoa(s.Runs),
		strconv.FormatUint(s.Seed, 10),
		strconv.Itoa(s.Chains),
		strconv.FormatInt(s.ExchangeEvery, 10),
		strconv.Itoa(s.Batch),
	)
}

// compile resolves a normalized, validated spec into its registered kind's
// instance: the concrete problem plus the solution/encode factories the
// runner needs. Building it is deterministic — the instance and every
// derived stream depend only on the spec.
func compile(s *JobSpec) (*problem.Instance, error) {
	p := &s.Problem
	d, ok := problem.Lookup(p.Kind)
	if !ok {
		return nil, fmt.Errorf("unknown problem kind %q (registered: %s)", p.Kind, strings.Join(problem.Kinds(), ", "))
	}
	return d.Compile(p, s.Seed)
}

// newG builds a fresh g instance for one replica, returning the resolved
// temperature schedule alongside (nil for schedule-free classes) so the
// tempering strategy can pin its exchange ladder to the same temperatures.
// Several classes carry mutable schedule state, so every replica gets its
// own instance.
func newG(inst *problem.Instance, s *JobSpec) (core.G, []float64, error) {
	if s.G == cohoonSahniName {
		if inst.Nets == 0 {
			return nil, nil, errors.New(cohoonSahniName + " applies only to netlist problems")
		}
		return gfunc.CohoonSahni(inst.Nets), nil, nil
	}
	b, ok := gfunc.ByName(s.G)
	if !ok {
		return nil, nil, fmt.Errorf("unknown g class %q", s.G)
	}
	ys := s.Ys
	if b.NeedsY && len(ys) == 0 {
		ys = b.DefaultYs(inst.Scale)
	}
	return b.Build(ys), ys, nil
}
