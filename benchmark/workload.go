package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"time"

	"mcopt/internal/service"
)

// A workload is a spec stream plus the service shape that serves it. The
// stream is a pure function of the workload seed: the pool of distinct specs
// and the order in which rounds draw from it. Shapes come from the repo's
// own service probe (BENCH_service.json's max-cut job) and the paper's
// experimental design (15 cells, 150 nets, the 12 s budget of 2400 moves),
// since there is no production traffic log.
type workload struct {
	name string
	why  string
	// fleet serves the stream from two in-process runners, so the manager
	// computes nothing itself.
	fleet bool
	// batch is the number of jobs a client submits per round before it
	// watches them in submit order.
	batch int
	// retireAge, when non-zero, turns on fast archive retirement: every
	// measured job's archive append and directory removal then falls inside
	// the measured phase, as on a server that has run longer than its
	// retire age.
	retireAge time.Duration
	// shapes are the job templates; the pool crosses each with problemSeeds
	// instances and jobSeeds replica seeds.
	shapes       []service.JobSpec
	problemSeeds int
	jobSeeds     int
}

// paperShapes are the four grid shapes: all three copies of the accept
// rule (serial Figure 1, Figure 2, the tempering chains) and the batched
// linarr kernel.
var paperShapes = []service.JobSpec{
	{Problem: service.ProblemSpec{Kind: "gola", Cells: 15, Nets: 150}, Strategy: "fig1", G: "g = 1", Budget: 2400, Runs: 10},
	{Problem: service.ProblemSpec{Kind: "gola", Cells: 15, Nets: 150}, Strategy: "fig1", G: "Six Temperature Annealing", Budget: 2400, Runs: 10},
	{Problem: service.ProblemSpec{Kind: "nola", Cells: 15, Nets: 150}, Strategy: "fig2", G: "g = 1", Budget: 2400, Runs: 10},
	{Problem: service.ProblemSpec{Kind: "gola", Cells: 15, Nets: 150}, Strategy: "tempering", Chains: 4, Batch: 16, G: "Six Temperature Annealing", Budget: 2400, Runs: 10},
}

var workloads = []*workload{
	{
		name:         "small-jobs",
		why:          "small max-cut jobs with fast archive retirement: the service, durability and the maxcut kernel dominate",
		batch:        1,
		retireAge:    time.Second,
		shapes:       []service.JobSpec{{Problem: service.ProblemSpec{Kind: "maxcut", Cells: 48, Nets: 180}, Budget: 8000, Runs: 2}},
		problemSeeds: 64,
		jobSeeds:     1,
	},
	{
		name:         "paper-grid",
		why:          "batches of the paper's four 15-cell shapes queue up on one node: the engines and the linarr kernel dominate",
		batch:        8,
		shapes:       paperShapes,
		problemSeeds: 16,
		jobSeeds:     1,
	},
	{
		name:         "fleet-grid",
		why:          "the paper-grid stream served by two runners over the lease API: the only workload on lease and runnerclient",
		fleet:        true,
		batch:        8,
		shapes:       paperShapes,
		problemSeeds: 16,
		jobSeeds:     1,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// streamLabel keeps paper-grid and fleet-grid on one spec stream: the fleet
// must see exactly the grid's specs for their artifacts to be comparable.
func (w *workload) streamLabel() string {
	if w.fleet {
		return "paper-grid"
	}
	return w.name
}

// specStream is a workload's generated input.
type specStream struct {
	// pool holds the distinct specs; perShape of them per shape, shape-major.
	pool     []service.JobSpec
	body     [][]byte // pool specs as submitted
	perShape int
	w        *workload
	seed     uint64
}

// newStream draws the pool: per shape, problemSeeds instances crossed with
// jobSeeds replica seeds, all from the workload seed.
func newStream(w *workload, seed uint64) (*specStream, error) {
	r := rand.New(rand.NewPCG(seed, hashLabel(w.streamLabel())))
	st := &specStream{w: w, seed: seed, perShape: w.problemSeeds * w.jobSeeds}
	for _, shape := range w.shapes {
		for range w.problemSeeds {
			ps := 1 + r.Uint64N(1<<31)
			for range w.jobSeeds {
				spec := shape
				spec.Problem.Seed = ps
				spec.Seed = 1 + r.Uint64N(1<<31)
				body, err := json.Marshal(spec)
				if err != nil {
					return nil, err
				}
				st.pool = append(st.pool, spec)
				st.body = append(st.body, body)
			}
		}
	}
	return st, nil
}

// round returns the pool indices of round i: batch/len(shapes) jobs of each
// shape, each shape cycling through its own pool slice in a per-cycle
// shuffled order, then the whole batch shuffled. Pure in (seed, i).
func (st *specStream) round(i int) []int {
	w := st.w
	per := w.batch / len(w.shapes)
	out := make([]int, 0, w.batch)
	for s := range w.shapes {
		for k := range per {
			pos := i*per + k
			cycle, at := pos/st.perShape, pos%st.perShape
			perm := rand.New(rand.NewPCG(st.seed^uint64(s+1)<<40, uint64(cycle))).Perm(st.perShape)
			out = append(out, s*st.perShape+perm[at])
		}
	}
	rand.New(rand.NewPCG(st.seed, uint64(i)+1<<50)).Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

func hashLabel(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s)) // a hash write cannot fail
	return h.Sum64()
}
