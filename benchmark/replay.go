package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mcopt/internal/archive"
	"mcopt/internal/atomicio"
	"mcopt/internal/checkpoint"
	"mcopt/internal/core"
	"mcopt/internal/runnerclient"
	"mcopt/internal/service"
	"mcopt/problem"
)

// The replay runs after the measured phase: it feeds the workload's
// distinct specs and payload sizes through the layers' exported functions
// one layer at a time, so each layer's cost is measured without the others
// around it.

// replayScale sizes the replay loops; tests shrink it.
type replayScale struct {
	kernelOps  int // proposals per instance per kernel loop
	instances  int // distinct instances per kernel family
	appends    int // journal appends, atomic writes and archive appends
	journals   int // journals opened
	compileRep int // compilations per distinct spec
}

var fullReplay = replayScale{kernelOps: 10000, instances: 8, appends: 100, journals: 10, compileRep: 3}

// kernelSink keeps the kernel loops' results observable to the compiler.
var kernelSink float64

type engineKey struct{ spec, run int }

type replayResult struct {
	metrics map[string]float64
	// engine is the nil-hook compute time of each (spec, run) replica, which
	// prices the service's replica span without its hooks and journal.
	engine map[engineKey]time.Duration
}

func replay(st *specStream, artifacts map[int][]byte, dir string, sc replayScale) (*replayResult, error) {
	out := &replayResult{metrics: map[string]float64{}, engine: map[engineKey]time.Duration{}}
	if err := replayEngines(st, sc, out); err != nil {
		return nil, err
	}
	if err := replayKernels(st, sc, out.metrics); err != nil {
		return nil, err
	}
	if err := replayDurability(st, artifacts, dir, sc, out.metrics); err != nil {
		return nil, err
	}
	return out, nil
}

func compileSpec(spec service.JobSpec) (*problem.Instance, error) {
	def, ok := problem.Lookup(spec.Problem.Kind)
	if !ok {
		return nil, fmt.Errorf("unknown kind %q", spec.Problem.Kind)
	}
	return def.Compile(&spec.Problem, spec.Seed)
}

// replayEngines times Compile on every distinct spec, and every replica of
// it through service.ReplicaComputer — the runners' compute path, with a
// nil hook — once the compiled instance is cached.
func replayEngines(st *specStream, sc replayScale, out *replayResult) error {
	var compile []float64
	moves := map[string]int64{}
	busy := map[string]time.Duration{}
	ctx := context.Background()
	for p, spec := range st.pool {
		spec.Normalize()
		for range sc.compileRep {
			start := time.Now()
			if _, err := compileSpec(spec); err != nil {
				return err
			}
			compile = append(compile, us(time.Since(start)))
		}
		rc := &service.ReplicaComputer{}
		grant := &runnerclient.LeaseGrant{Spec: st.body[p]}
		if _, err := rc.Compute(ctx, grant, 0); err != nil { // compiles and caches the instance
			return err
		}
		for i := range spec.Runs {
			start := time.Now()
			data, err := rc.Compute(ctx, grant, i)
			d := time.Since(start)
			if err != nil {
				return err
			}
			var rr service.RunResult
			if err := json.Unmarshal(data, &rr); err != nil {
				return err
			}
			out.engine[engineKey{p, i}] = d
			moves[spec.Strategy] += rr.Moves
			busy[spec.Strategy] += d
		}
	}
	out.metrics["problem.compile_us"] = median(compile)
	for strategy, name := range map[string]string{
		"fig1": "core.fig1_moves_per_s", "fig2": "core.fig2_moves_per_s", "tempering": "core.tempering_moves_per_s",
	} {
		out.metrics[name] = ratio(float64(moves[strategy]), busy[strategy].Seconds())
	}
	return nil
}

// replayKernels times the move kernels on the first distinct instances of
// each kernel family: Propose+Delta (a rejected move), Propose+Apply,
// ProposeBatch per candidate and Descend per evaluated candidate.
func replayKernels(st *specStream, sc replayScale, m map[string]float64) error {
	type acc struct {
		eval, apply, batch, descend time.Duration
		evalN, batchN, descendN     int64
	}
	byFamily := map[string]*acc{}
	seen := map[string]bool{}
	perFamily := map[string]int{}
	for _, spec := range st.pool {
		spec.Normalize()
		family := "linarr"
		if spec.Problem.Kind == "maxcut" {
			family = "maxcut"
		}
		key := fmt.Sprintf("%s/%d", spec.Problem.Kind, spec.Problem.Seed)
		if seen[key] || perFamily[family] == sc.instances {
			continue
		}
		seen[key] = true
		perFamily[family]++
		inst, err := compileSpec(spec)
		if err != nil {
			return err
		}
		a := byFamily[family]
		if a == nil {
			a = &acc{}
			byFamily[family] = a
		}
		r := rand.New(rand.NewPCG(spec.Problem.Seed, 1))
		n := sc.kernelOps
		sol := inst.NewSolution(0)
		var sink float64
		start := time.Now()
		for range n {
			sink += sol.Propose(r).Delta()
		}
		evalD := time.Since(start)
		start = time.Now()
		for range n {
			mv := sol.Propose(r)
			sink += mv.Delta()
			mv.Apply()
		}
		a.apply += max(0, time.Since(start)-evalD)
		a.eval += evalD
		a.evalN += int64(n)
		if be, ok := sol.(core.BatchEvaluator); ok && family == "linarr" {
			deltas := make([]float64, 16)
			start = time.Now()
			for range n / len(deltas) {
				be.ProposeBatch(r, deltas)
				sink += deltas[0]
			}
			a.batch += time.Since(start)
			a.batchN += int64(n / len(deltas) * len(deltas))
		}
		for run, used := 0, int64(0); used < int64(n); run++ {
			d, ok := inst.NewSolution(run).(core.Descender)
			if !ok {
				break
			}
			b := core.NewBudget(int64(n))
			start = time.Now()
			d.Descend(b)
			a.descend += time.Since(start)
			used += b.Used()
			a.descendN += b.Used()
		}
		kernelSink = sink
	}
	perOp := func(d time.Duration, n int64) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
	if a := byFamily["linarr"]; a != nil {
		m["linarr.eval_ns"] = perOp(a.eval, a.evalN)
		m["linarr.apply_ns"] = perOp(a.apply, a.evalN)
		m["linarr.batch_eval_ns"] = perOp(a.batch, a.batchN)
		m["linarr.descend_eval_ns"] = perOp(a.descend, a.descendN)
	}
	if a := byFamily["maxcut"]; a != nil {
		m["maxcut.flip_eval_ns"] = perOp(a.eval, a.evalN)
		m["maxcut.flip_apply_ns"] = perOp(a.apply, a.evalN)
	}
	return nil
}

// replayDurability times journal opens and appends, atomic artifact writes
// and archive appends on the data directory's filesystem, with payloads
// taken from the run's own artifacts.
func replayDurability(st *specStream, artifacts map[int][]byte, dir string, sc replayScale, m map[string]float64) error {
	var results, payloads [][]byte
	var records []*archive.Record
	specs := make([]int, 0, len(artifacts))
	for p := range artifacts {
		specs = append(specs, p)
	}
	sort.Ints(specs)
	for _, p := range specs {
		data := artifacts[p]
		var res service.Result
		if err := json.Unmarshal(data, &res); err != nil {
			return err
		}
		results = append(results, data)
		for _, rr := range res.Runs {
			payload, err := json.Marshal(rr)
			if err != nil {
				return err
			}
			payloads = append(payloads, payload)
		}
		spec := st.pool[p]
		records = append(records, &archive.Record{Kind: spec.Problem.Kind, G: spec.G, Budget: spec.Budget,
			Runs: spec.Runs, State: "done", BestCost: res.BestCost, Envelope: data})
	}
	if len(results) == 0 {
		return fmt.Errorf("replay: no artifacts")
	}
	root, err := os.MkdirTemp(dir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	var opens, appends []float64
	perJournal := max(1, sc.appends/sc.journals)
	for i := range sc.journals {
		start := time.Now()
		j, err := checkpoint.Open(filepath.Join(root, fmt.Sprintf("job-%d.wal", i)), uint64(i+1), false)
		if err != nil {
			return err
		}
		opens = append(opens, us(time.Since(start)))
		for slot := range perJournal {
			payload := payloads[(i*perJournal+slot)%len(payloads)]
			start := time.Now()
			if err := j.Append(context.Background(), slot, payload); err != nil {
				j.Close()
				return err
			}
			appends = append(appends, us(time.Since(start)))
		}
		if err := j.Close(); err != nil {
			return err
		}
	}
	m["checkpoint.open_us"] = median(opens)
	m["checkpoint.append_p50_us"] = median(appends)
	m["checkpoint.append_p99_us"] = percentile(appends, 0.99)

	var writes []float64
	for i := range sc.appends {
		start := time.Now()
		if err := atomicio.WriteFile(filepath.Join(root, fmt.Sprintf("result-%d.json", i%8)), results[i%len(results)], 0o644); err != nil {
			return err
		}
		writes = append(writes, us(time.Since(start)))
	}
	m["atomicio.write_p50_us"] = median(writes)
	m["atomicio.write_p99_us"] = percentile(writes, 0.99)

	arch, err := archive.Open(archive.Options{Dir: filepath.Join(root, "archive")})
	if err != nil {
		return err
	}
	var archived []float64
	for i := range sc.appends {
		rec := *records[i%len(records)]
		rec.ID = fmt.Sprintf("replay-%06d", i)
		rec.RetiredAt = time.Now().Unix()
		start := time.Now()
		if err := arch.Append(&rec); err != nil {
			arch.Close()
			return err
		}
		archived = append(archived, us(time.Since(start)))
	}
	if err := arch.Close(); err != nil {
		return err
	}
	m["archive.append_p50_us"] = median(archived)
	return nil
}
