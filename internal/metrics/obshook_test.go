package metrics

import (
	"strings"
	"sync"
	"testing"

	"mcopt/internal/core"
	"mcopt/internal/obs"
)

func TestEngineCollector(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewEngineCollector(reg)
	hook := c.Hook()

	hook(core.Event{Kind: core.EventStart, Temp: 1, Cost: 100, BestCost: 100})
	for i := 0; i < 10; i++ {
		hook(core.Event{Kind: core.EventPropose, Temp: 1, Delta: -1})
		if i%2 == 0 {
			hook(core.Event{Kind: core.EventAccept, Temp: 1, Delta: -1})
		} else {
			hook(core.Event{Kind: core.EventReject, Temp: 1})
		}
	}
	hook(core.Event{Kind: core.EventLevel, Temp: 2})
	hook(core.Event{Kind: core.EventPropose, Temp: 2, Delta: 1})
	hook(core.Event{Kind: core.EventAccept, Temp: 2, Delta: 1})
	hook(core.Event{Kind: core.EventBest, BestCost: 90})
	hook(core.Event{Kind: core.EventEnd, Cost: 92, BestCost: 90})

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("engine exposition does not parse: %v\n%s", err, sb.String())
	}
	check := func(name string, labels map[string]string, want float64) {
		t.Helper()
		if got, ok := exp.Value(name, labels); !ok || got != want {
			t.Fatalf("%s%v = %v (ok=%v), want %v", name, labels, got, ok, want)
		}
	}
	check("mcopt_engine_runs_started_total", nil, 1)
	check("mcopt_engine_runs_completed_total", nil, 1)
	check("mcopt_engine_proposals_total", map[string]string{"decision": "proposed"}, 11)
	check("mcopt_engine_proposals_total", map[string]string{"decision": "accepted"}, 6)
	check("mcopt_engine_proposals_total", map[string]string{"decision": "rejected"}, 5)
	check("mcopt_engine_level_proposals_total", map[string]string{"level": "1"}, 10)
	check("mcopt_engine_level_accepted_total", map[string]string{"level": "1"}, 5)
	check("mcopt_engine_level_proposals_total", map[string]string{"level": "2"}, 1)
	check("mcopt_engine_level_accepted_total", map[string]string{"level": "2"}, 1)
	check("mcopt_engine_improvements_total", nil, 1)
	check("mcopt_engine_best_cost", nil, 90)
}

// TestEngineCollectorConcurrent runs many per-run hooks of one collector
// from concurrent goroutines, mimicking a multi-worker replica grid, and
// checks that their flushed tallies add up; run with -race.
func TestEngineCollectorConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewEngineCollector(reg)
	var wg sync.WaitGroup
	const workers, events = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hook := c.Hook()
			for i := 0; i < events; i++ {
				temp := 1 + (w+i)%25
				hook(core.Event{Kind: core.EventPropose, Temp: temp})
				hook(core.Event{Kind: core.EventAccept, Temp: temp})
			}
			hook(core.Event{Kind: core.EventEnd})
		}(w)
	}
	wg.Wait()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := exp.Sum("mcopt_engine_level_proposals_total", nil); got != workers*events {
		t.Fatalf("level proposals sum %v, want %d", got, workers*events)
	}
	if got, _ := exp.Value("mcopt_engine_proposals_total", map[string]string{"decision": "accepted"}); got != workers*events {
		t.Fatalf("accepted %v, want %d", got, workers*events)
	}
}
