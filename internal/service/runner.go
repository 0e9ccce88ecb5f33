package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mcopt/internal/atomicio"
	"mcopt/internal/checkpoint"
	"mcopt/internal/core"
	"mcopt/internal/lease"
	"mcopt/internal/metrics"
	"mcopt/internal/rng"
	"mcopt/internal/runnerclient"
	"mcopt/internal/sched"
	"mcopt/problem"
)

// The runner is problem-agnostic: everything domain-specific arrives
// through the compiled problem.Instance, so new registered kinds run here
// unchanged.

// RunResult is one replica's outcome in the result artifact and the
// checkpoint journal. Every field is a pure function of (spec, run index),
// so a replica restored from the journal is indistinguishable from a
// freshly computed one — the byte-identity the smoke test asserts.
type RunResult struct {
	Run          int     `json:"run"`
	InitialCost  float64 `json:"initial_cost"`
	BestCost     float64 `json:"best_cost"`
	FinalCost    float64 `json:"final_cost"`
	Moves        int64   `json:"moves"`
	Accepted     int64   `json:"accepted"`
	Uphill       int64   `json:"uphill"`
	Improvements int64   `json:"improvements"`
	// Chains captures every tempering chain's activity and final state —
	// the full K-chain picture a checkpointed replica restores, not just the
	// winning chain. Empty for the single-chain strategies.
	Chains []ChainResult `json:"chains,omitempty"`
	// Exchanges counts replica-exchange attempts (ExchangesAccepted the
	// successes) across all adjacent pairs; zero for single-chain runs.
	Exchanges         int64 `json:"exchanges,omitempty"`
	ExchangesAccepted int64 `json:"exchanges_accepted,omitempty"`
	// Solution is the best state's integer encoding: cell order (gola/nola),
	// side assignment (partition), tour order (tsp), or sorted medians
	// (pmedian).
	Solution []int `json:"solution"`
}

// ChainResult is one tempering chain's slice of a RunResult, chain 0 the
// coldest. Swap counters belong to the pair (chain, chain+1), so the hottest
// chain's are always zero.
type ChainResult struct {
	Level        int     `json:"level"`
	Temp         float64 `json:"temp"`
	Moves        int64   `json:"moves"`
	Accepted     int64   `json:"accepted"`
	Uphill       int64   `json:"uphill"`
	SwapAttempts int64   `json:"swap_attempts"`
	Swaps        int64   `json:"swaps"`
	FinalCost    float64 `json:"final_cost"`
}

// Result is the job's result artifact (result.json). It intentionally
// excludes the job ID and all wall-clock data: the artifact is a pure
// function of the spec, so identical specs produce byte-identical artifacts
// whether computed in one go, resumed after a crash, or on another machine.
type Result struct {
	Spec    JobSpec     `json:"spec"`
	Problem string      `json:"problem"`
	Runs    []RunResult `json:"runs"`
	// BestRun indexes the lowest-cost replica (ties break to the lowest
	// index); BestCost and BestSolution repeat its headline fields.
	BestRun      int     `json:"best_run"`
	BestCost     float64 `json:"best_cost"`
	BestSolution []int   `json:"best_solution"`
	// TotalReduction sums initial−best over replicas, the quantity the
	// paper's tables total per suite.
	TotalReduction float64 `json:"total_reduction"`
}

// streamedKinds selects which engine events are bridged into the NDJSON
// stream: the run skeleton (start, level transitions, best-so-far records,
// descent completions, end), not the per-proposal firehose — a budget of
// millions of moves must not emit millions of lines to every watcher. The
// full event mix still reaches /metrics through the obs engine bridge.
func streamedKind(k core.EventKind) bool {
	switch k {
	case core.EventStart, core.EventLevel, core.EventBest, core.EventDescent,
		core.EventExchange, core.EventEnd:
		return true
	}
	return false
}

// runJob executes one job's replica grid; every job runs through it. It
// opens (or resumes) the job's checkpoint journal, builds a lease table
// over the grid with the journal as its commit log, and attaches the table
// to the coordinator so registered runners can lease windows of it.
// Whenever no live runner is registered — as the job starts, or after the
// whole fleet has died — the manager computes the uncommitted slots
// in-process (computeLocal). Every slot, wherever it was computed, is the
// same pure function of (spec, index) committed through the same hook, so
// the result bytes cannot reveal which machines did the work.
func (m *Manager) runJob(ctx context.Context, j *Job) error {
	spec := &j.Spec
	prob, err := compile(spec)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	j.mu.Lock()
	j.problem = prob.Desc
	j.mu.Unlock()

	dir := m.jobDir(j.ID)
	cfg := &checkpoint.Config{Dir: dir, Resume: true}
	journal, err := cfg.Journal("job", spec.Fingerprint())
	if err != nil {
		return err
	}
	defer journal.Close()

	// The journal is the lease-commit log: the table's commit hook appends
	// each slot exactly once, and the journal's per-slot idempotency plus
	// payload purity make any crash/re-lease interleaving converge on
	// identical bytes. The hook also keeps the results grid and the
	// progress counter current; progress counts journaled replicas only, so
	// it never runs backwards across a resume. The hook runs under the
	// table lock; it must not call back into the table or the coordinator.
	n := spec.Runs
	results := make([]RunResult, n)
	table := lease.New(n, lease.Options{
		TTL:   m.cfg.LeaseTTL,
		Chunk: m.cfg.LeaseChunk,
		// Expiry is detected lazily by lease operations as well as by the
		// sweep below; the hook sees every retirement exactly once.
		OnExpire: func(ex lease.Expired) {
			m.obs.leasesExpired.Inc()
			m.coord.traceLease(j, "re-lease", map[string]string{
				"lease":  ex.ID,
				"runner": ex.Runner,
				"freed":  fmt.Sprintf("%d", len(ex.Freed)),
			})
			m.cfg.Logf("service: job %s: lease %s (runner %s) expired, re-leasing %d slot(s)",
				j.ID, ex.ID, ex.Runner, len(ex.Freed))
		},
		Commit: func(slot int, payload []byte) error {
			var rr RunResult
			if err := json.Unmarshal(payload, &rr); err != nil {
				return fmt.Errorf("slot %d payload: %w", slot, err)
			}
			if rr.Run != slot {
				return fmt.Errorf("slot %d payload claims run %d", slot, rr.Run)
			}
			// Append refuses when ctx is cancelled: a budget cut short
			// mid-replica is a partial result, and recording it would make
			// the resumed job diverge from an uninterrupted one.
			if err := journal.Append(ctx, slot, payload); err != nil {
				return err
			}
			results[slot] = rr // serialized by the table lock the hook runs under
			j.setProgress(journal.Len())
			return nil
		},
	})
	// The table is not attached yet, so marking restored slots here cannot
	// race a commit.
	if err := journal.Restore(n, func(slot int, payload []byte) error {
		if err := json.Unmarshal(payload, &results[slot]); err != nil {
			return err
		}
		table.MarkCommitted(slot)
		return nil
	}); err != nil {
		return err
	}
	j.setProgress(journal.Len())

	if err := m.coord.attach(j, table); err != nil {
		return err
	}
	defer m.coord.detach(j.ID)
	if m.coord.live() > 0 {
		m.cfg.Logf("service: job %s: distributed across fleet (%d slot(s) to lease)", j.ID, table.Remaining())
	}

	sweep := time.NewTicker(m.cfg.LeaseTTL / 2)
	defer sweep.Stop()
	for {
		if m.coord.live() == 0 {
			if err := m.computeLocal(ctx, j, prob, table); err != nil {
				return err
			}
		}
		select {
		case <-table.Done():
			return commitResult(j, dir, spec, prob.Desc, results)
		case <-ctx.Done():
			// Cancelled or draining: the journal holds every committed slot,
			// so a resumed job picks up from here.
			return ctx.Err()
		case <-sweep.C:
		}
		// Force expiry detection even when no runner is polling; the
		// OnExpire hook records each retirement.
		table.ExpireDead()
	}
}

// computeLocal computes the table's uncommitted slots in-process on
// RunWorkers scheduler workers. CommitLocal revokes a slot from any
// presumed-dead lease holder; if that runner turns out to be alive and
// commits anyway, the table answers idempotently and the bytes agree.
// Liveness is re-checked before each slot, so a fleet that registers
// mid-job takes over every slot not yet started; only the slots already in
// flight can be computed twice. In-process slots carry the local
// observables: a replica span, the obs engine hook, and run@<i> records on
// the job's NDJSON stream. None of them can influence the search, so the
// result bytes are the same with observability on or off.
func (m *Manager) computeLocal(ctx context.Context, j *Job, prob *problem.Instance, table *lease.Table) error {
	engineHook := m.engineHook()
	opts := sched.Options{Workers: m.cfg.RunWorkers, Ctx: ctx, Skip: table.Committed}
	report := sched.Run(j.Spec.Runs, opts, func(ctx context.Context, i int) error {
		if m.coord.live() > 0 {
			return nil // the fleet computes the rest
		}
		if j.trace != nil {
			span := j.trace.Start(j.runSpan, "replica", map[string]string{"run": fmt.Sprintf("%d", i)})
			defer j.trace.End(span)
		}
		label := fmt.Sprintf("run@%d", i)
		hook := metrics.Tee(engineHook, func(e core.Event) {
			if streamedKind(e.Kind) {
				j.publishEvent(metrics.RecordOf(label, e))
			}
		})
		rr, err := computeReplica(ctx, &j.Spec, prob, i, hook)
		if err != nil {
			return err
		}
		payload, err := json.Marshal(rr)
		if err != nil {
			return err
		}
		if err := table.CommitLocal(i, payload); err != nil {
			return err
		}
		m.obs.leaseCommits.With(commitLocal).Inc()
		return nil
	})
	return report.Err()
}

// computeReplica computes replica i of the spec's grid: the pure function
// of (spec, i) behind every run surface. The manager's in-process workers
// and remote runners (through ReplicaComputer) both call it, which is what
// makes their payloads interchangeable byte for byte. hook observes engine
// events and may be nil.
func computeReplica(ctx context.Context, spec *JobSpec, prob *problem.Instance, i int, hook core.Hook) (RunResult, error) {
	g, ys, err := newG(prob, spec)
	if err != nil {
		return RunResult{}, err
	}
	sol := prob.NewSolution(i)
	budget := core.NewBudget(spec.Budget).WithContext(ctx)
	stream := rng.Derive("service/run/"+spec.Strategy+"/"+spec.G, spec.Seed, uint64(i))
	var res core.Result
	switch spec.Strategy {
	case "fig2":
		desc, ok := sol.(core.Descender)
		if !ok {
			return RunResult{}, fmt.Errorf("%s solutions do not support fig2", spec.Problem.Kind)
		}
		res = core.Figure2{G: g, Hook: hook}.Run(desc, budget, stream)
	case "tempering":
		res = core.Tempering{
			G:             g,
			Chains:        spec.Chains,
			ExchangeEvery: spec.ExchangeEvery,
			Temps:         core.TemperingLadder(ys, spec.Chains),
			Batch:         spec.Batch,
			Hook:          hook,
		}.Run(sol, budget, stream)
	default:
		res = core.Figure1{G: g, Batch: spec.Batch, Hook: hook}.Run(sol, budget, stream)
	}
	rr := RunResult{
		Run:          i,
		InitialCost:  res.InitialCost,
		BestCost:     res.BestCost,
		FinalCost:    res.FinalCost,
		Moves:        res.Moves,
		Accepted:     res.Accepted,
		Uphill:       res.Uphill,
		Improvements: res.Improvements,
		Solution:     prob.Encode(res.Best),
	}
	if len(res.Chains) > 0 {
		rr.Exchanges = res.Exchanges
		rr.ExchangesAccepted = res.ExchangesAccepted
		rr.Chains = make([]ChainResult, len(res.Chains))
		for c, cs := range res.Chains {
			rr.Chains[c] = ChainResult{
				Level:        cs.Level,
				Temp:         cs.Temp,
				Moves:        cs.Moves,
				Accepted:     cs.Accepted,
				Uphill:       cs.Uphill,
				SwapAttempts: cs.SwapAttempts,
				Swaps:        cs.Swaps,
				FinalCost:    cs.FinalCost,
			}
		}
	}
	return rr, nil
}

// commitResult builds and atomically writes the result artifact from a
// complete results grid. Every job ends here, so the artifact bytes cannot
// depend on which machines computed the replicas.
func commitResult(j *Job, dir string, spec *JobSpec, problemDesc string, results []RunResult) error {
	if j.trace != nil {
		span := j.trace.Start(j.runSpan, "commit", nil)
		defer j.trace.End(span)
	}
	result := &Result{
		Spec:    *spec,
		Problem: problemDesc,
		Runs:    results,
		BestRun: 0,
	}
	for i, rr := range results {
		if rr.BestCost < results[result.BestRun].BestCost {
			result.BestRun = i
		}
		result.TotalReduction += rr.InitialCost - rr.BestCost
	}
	best := results[result.BestRun]
	result.BestCost = best.BestCost
	result.BestSolution = best.Solution
	data, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := atomicio.WriteFile(filepath.Join(dir, resultFile), data, 0o644); err != nil {
		return err
	}
	j.mu.Lock()
	j.bestCost = &best.BestCost
	j.mu.Unlock()
	return nil
}

// ReplicaComputer is the compute callback a runner process plugs into
// runnerclient.Runner: it decodes a grant's spec, compiles the problem
// instance (cached by spec fingerprint — a fleet typically grinds one job's
// grid at a time), computes the slot, and returns the RunResult JSON that
// the coordinator journals. Safe for sequential reuse across grants; the
// runner loop is single-threaded per process.
type ReplicaComputer struct {
	mu   sync.Mutex
	fp   uint64
	spec JobSpec
	prob *problem.Instance
}

// Compute implements runnerclient.ComputeFunc.
func (rc *ReplicaComputer) Compute(ctx context.Context, g *runnerclient.LeaseGrant, slot int) ([]byte, error) {
	spec, prob, err := rc.instance(g.Spec)
	if err != nil {
		return nil, err
	}
	rr, err := computeReplica(ctx, spec, prob, slot, nil)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rr)
}

// instance resolves the grant's spec to a compiled problem, reusing the
// cached compilation when the fingerprint matches.
func (rc *ReplicaComputer) instance(raw json.RawMessage) (*JobSpec, *problem.Instance, error) {
	var spec JobSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, nil, fmt.Errorf("decode grant spec: %w", err)
	}
	spec.Normalize()
	fp := spec.Fingerprint()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.prob != nil && rc.fp == fp {
		return &rc.spec, rc.prob, nil
	}
	prob, err := compile(&spec)
	if err != nil {
		return nil, nil, fmt.Errorf("compile grant spec: %w", err)
	}
	rc.fp, rc.spec, rc.prob = fp, spec, prob
	return &rc.spec, rc.prob, nil
}

// Artifact and marker file names inside a job directory.
const (
	specFile      = "spec.json"
	resultFile    = "result.json"
	errorFile     = "error.json"
	cancelledFile = "cancelled"
	traceFile     = "trace.jsonl"
)

// readResult loads a job's committed result artifact.
func readResult(dir string) ([]byte, error) {
	return os.ReadFile(filepath.Join(dir, resultFile))
}
