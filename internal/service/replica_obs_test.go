package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mcopt/internal/core"
	_ "mcopt/internal/maxcut" // registers maxcut beside the kinds service_test.go imports
	"mcopt/problem"
)

// servedSpec is a normalized, validated job spec for one kind and strategy.
func servedSpec(t *testing.T, kind, strategy, g string, budget int64, runs int) JobSpec {
	t.Helper()
	spec := JobSpec{Problem: ProblemSpec{Kind: kind}, Strategy: strategy, G: g, Budget: budget, Runs: runs, Seed: 3}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatalf("%s/%s: %v", kind, strategy, err)
	}
	return spec
}

// TestServedReplicaAllocsFlatInBudget is the allocation gate of the served
// hot path: a replica computed through computeReplica, observed by the
// manager's per-replica hook tee, makes the same allocations within a
// small slack whatever its budget. Anything allocated per proposal — a
// move, an event, a counter lookup — grows with the budget and fails it.
func TestServedReplicaAllocsFlatInBudget(t *testing.T) {
	m, _ := testServer(t, Config{})
	const small, large, slack = 8000, 32000, 64
	for _, kind := range problem.Kinds() {
		for _, strategy := range []string{"fig1", "fig2", "tempering"} {
			t.Run(kind+"/"+strategy, func(t *testing.T) {
				allocs := func(budget int64) float64 {
					spec := servedSpec(t, kind, strategy, "", budget, 1)
					prob, err := compile(&spec)
					if err != nil {
						t.Fatal(err)
					}
					j := &Job{ID: "alloc-gate", Spec: spec}
					return testing.AllocsPerRun(1, func() {
						if _, err := computeReplica(context.Background(), &spec, prob, 0, m.replicaHook(j, 0)); err != nil {
							t.Fatal(err)
						}
					})
				}
				lo, hi := allocs(small), allocs(large)
				t.Logf("allocations per replica: %.0f at budget %d, %.0f at %d", lo, small, hi, large)
				if hi-lo > slack {
					t.Fatalf("budget %d makes %.0f allocations, budget %d makes %.0f: more than %d grow with the budget",
						small, lo, large, hi, slack)
				}
			})
		}
	}
}

// seriesKey names one counter series, its labels sorted and the build
// version label left out.
func seriesKey(name string, labels map[string]string) string {
	var pairs []string
	for k, v := range labels {
		if k != "version" {
			pairs = append(pairs, k+"="+v)
		}
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// countingHook counts events into the engine series they feed, one by one.
func countingHook(counts map[string]float64) core.Hook {
	inc := func(name, label, value string) {
		labels := map[string]string{}
		if label != "" {
			labels[label] = value
		}
		counts[seriesKey(name, labels)]++
	}
	return func(e core.Event) {
		level := strconv.Itoa(e.Temp)
		pair := fmt.Sprintf("%d-%d", e.Chain, e.Chain+1)
		switch e.Kind {
		case core.EventStart:
			inc("mcopt_engine_runs_started_total", "", "")
		case core.EventPropose:
			inc("mcopt_engine_proposals_total", "decision", "proposed")
			inc("mcopt_engine_level_proposals_total", "level", level)
		case core.EventAccept:
			inc("mcopt_engine_proposals_total", "decision", "accepted")
			inc("mcopt_engine_level_accepted_total", "level", level)
		case core.EventReject:
			inc("mcopt_engine_proposals_total", "decision", "rejected")
		case core.EventDescent:
			inc("mcopt_engine_descents_total", "", "")
		case core.EventBest:
			inc("mcopt_engine_improvements_total", "", "")
		case core.EventExchange:
			inc("mcopt_engine_exchange_attempts_total", "pair", pair)
			inc("mcopt_engine_exchange_accepts_total", "pair", pair)
		case core.EventExchangeReject:
			inc("mcopt_engine_exchange_attempts_total", "pair", pair)
		case core.EventEnd:
			inc("mcopt_engine_runs_completed_total", "", "")
		}
	}
}

// TestEngineCountersExact pins the engine bridge to the events it
// observes: after a mix of jobs — six-level annealing, Figure 2, and
// four-chain tempering on gola and maxcut — every mcopt_engine_* counter
// series on /metrics equals a plain count of the same replicas' events.
func TestEngineCountersExact(t *testing.T) {
	_, ts := testServer(t, Config{})
	var specs []JobSpec
	for _, kind := range []string{KindGOLA, KindMaxCut} {
		specs = append(specs,
			servedSpec(t, kind, "fig1", "Six Temperature Annealing", 3000, 2),
			servedSpec(t, kind, "fig2", "", 3000, 2),
			servedSpec(t, kind, "tempering", "", 3000, 2))
	}
	want := map[string]float64{}
	for _, spec := range specs {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		id, code := submit(t, ts, string(body), "")
		if code != http.StatusCreated {
			t.Fatalf("submit %s: %d %s", body, code, id)
		}
		waitState(t, ts, id, StateDone)

		prob, err := compile(&spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < spec.Runs; i++ {
			if _, err := computeReplica(context.Background(), &spec, prob, i, countingHook(want)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, series := range []string{
		"mcopt_engine_level_proposals_total{level=6}",
		"mcopt_engine_exchange_attempts_total{pair=2-3}",
		"mcopt_engine_descents_total{}",
	} {
		if want[series] == 0 {
			t.Fatalf("the job mix produced no %s events; the check would be vacuous", series)
		}
	}

	exp := scrape(t, ts)
	seen := map[string]bool{}
	for name, f := range exp.Families {
		if !strings.HasPrefix(name, "mcopt_engine_") || f.Type != "counter" {
			continue
		}
		for _, s := range f.Samples {
			key := seriesKey(s.Name, s.Labels)
			seen[key] = true
			if s.Value != want[key] {
				t.Errorf("%s = %v, events count %v", key, s.Value, want[key])
			}
		}
	}
	for key, n := range want {
		if n > 0 && !seen[key] {
			t.Errorf("%s: %v events, no series on /metrics", key, n)
		}
	}
}
