package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"mcopt/internal/linarr"
	"mcopt/internal/maxcut"
	"mcopt/internal/service"
	"mcopt/problem"
)

// artifactCheck is the verdict on one distinct result artifact, plus the
// search counts the engine layer's guards read from it.
type artifactCheck struct {
	err                     error
	bestCost                float64
	moves, accepted         int64
	exchanges, exchAccepted int64
}

// checkArtifact verifies a result against the spec it was submitted for:
// one run per replica in slot order, best_run the argmin (ties to the
// lowest index), and best_solution re-scored through the compiled
// instance's public API equal to best_cost.
func checkArtifact(spec service.JobSpec, data []byte) artifactCheck {
	var res service.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return artifactCheck{err: fmt.Errorf("decode result: %w", err)}
	}
	spec.Normalize()
	if res.Spec.Fingerprint() != spec.Fingerprint() {
		return artifactCheck{err: fmt.Errorf("result is for another spec")}
	}
	if len(res.Runs) != spec.Runs {
		return artifactCheck{err: fmt.Errorf("%d runs, spec asks %d", len(res.Runs), spec.Runs)}
	}
	out := artifactCheck{bestCost: res.BestCost}
	best := 0
	for i, rr := range res.Runs {
		if rr.Run != i {
			return artifactCheck{err: fmt.Errorf("runs[%d] is run %d", i, rr.Run)}
		}
		if rr.BestCost < res.Runs[best].BestCost {
			best = i
		}
		out.moves += rr.Moves
		out.accepted += rr.Accepted
		out.exchanges += rr.Exchanges
		out.exchAccepted += rr.ExchangesAccepted
	}
	if res.BestRun != best {
		return artifactCheck{err: fmt.Errorf("best_run %d, argmin is %d", res.BestRun, best)}
	}
	if res.BestCost != res.Runs[best].BestCost {
		return artifactCheck{err: fmt.Errorf("best_cost %v, best run has %v", res.BestCost, res.Runs[best].BestCost)}
	}
	cost, err := rescore(spec, res.BestSolution)
	if err != nil {
		return artifactCheck{err: err}
	}
	if cost != res.BestCost {
		return artifactCheck{err: fmt.Errorf("best_solution scores %v, best_cost says %v", cost, res.BestCost)}
	}
	return out
}

// rescore computes a solution encoding's cost from scratch on the spec's
// compiled instance.
func rescore(spec service.JobSpec, solution []int) (float64, error) {
	def, ok := problem.Lookup(spec.Problem.Kind)
	if !ok {
		return 0, fmt.Errorf("unknown kind %q", spec.Problem.Kind)
	}
	inst, err := def.Compile(&spec.Problem, spec.Seed)
	if err != nil {
		return 0, err
	}
	switch s := inst.NewSolution(0).(type) {
	case *linarr.Solution:
		arr, err := linarr.New(s.Arrangement().Netlist(), solution)
		if err != nil {
			return 0, fmt.Errorf("best_solution: %w", err)
		}
		return float64(arr.Density()), nil
	case *maxcut.Solution:
		g := s.Cut().Instance()
		cut, err := maxcut.NewCut(g, solution)
		if err != nil {
			return 0, fmt.Errorf("best_solution: %w", err)
		}
		return float64(g.PositiveWeight() - cut.Weight()), nil
	}
	return 0, fmt.Errorf("no re-scorer for kind %q", spec.Problem.Kind)
}

type hash = [sha256.Size]byte

// verifier checks every observed job outside the timed interval.
type verifier struct {
	st    *specStream
	store *artifactStore
	// ref, when set, is the expected artifact hash per spec (the fleet's
	// single-node reference); otherwise the most common hash per spec is.
	ref   map[int]hash
	cache map[int]map[hash]artifactCheck
	modal map[int]hash
}

func newVerifier(st *specStream, store *artifactStore, jobs []*jobObs, ref map[int]hash) *verifier {
	v := &verifier{st: st, store: store, ref: ref, cache: map[int]map[hash]artifactCheck{}, modal: map[int]hash{}}
	counts := map[int]map[hash]int{}
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		if counts[j.spec] == nil {
			counts[j.spec] = map[hash]int{}
		}
		counts[j.spec][j.hash]++
	}
	// The expected artifact of a spec is one that passes the checks, then the
	// most common, then the lowest hash, so the choice is deterministic and
	// one damaged copy fails only itself.
	for spec, byHash := range counts {
		best, n, bestOK := hash{}, -1, false
		for h, c := range byHash {
			ok := v.artifact(spec, h).err == nil
			if ok != bestOK {
				if ok {
					best, n, bestOK = h, c, ok
				}
				continue
			}
			if c > n || (c == n && string(h[:]) < string(best[:])) {
				best, n = h, c
			}
		}
		v.modal[spec] = best
	}
	return v
}

// artifact returns the checks' verdict on one distinct artifact of a spec.
func (v *verifier) artifact(spec int, h hash) artifactCheck {
	m := v.cache[spec]
	if m == nil {
		m = map[hash]artifactCheck{}
		v.cache[spec] = m
	}
	c, ok := m[h]
	if !ok {
		c = checkArtifact(v.st.pool[spec], v.store.get(spec, h))
		m[h] = c
	}
	return c
}

// check returns the job's artifact verdict, marking the job failed when
// its artifact is wrong or differs from its spec's expected bytes.
func (v *verifier) check(j *jobObs) artifactCheck {
	if j.err != nil {
		return artifactCheck{err: j.err}
	}
	want, ok := v.ref[j.spec]
	if !ok {
		want = v.modal[j.spec]
	}
	if j.hash != want {
		j.err = fmt.Errorf("job %s: artifact differs from other runs of the same spec", j.id)
		return artifactCheck{err: j.err}
	}
	c := v.artifact(j.spec, j.hash)
	if c.err != nil {
		j.err = fmt.Errorf("job %s: %w", j.id, c.err)
	}
	return c
}
