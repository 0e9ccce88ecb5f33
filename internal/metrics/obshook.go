package metrics

import (
	"strconv"

	"mcopt/internal/core"
	"mcopt/internal/obs"
)

// EngineCollector bridges the core.Hook event stream into an obs.Registry
// as Prometheus-style time series: move throughput (rate of
// mcopt_engine_proposals_total), per-level acceptance (the accepted/proposed
// counter pair under a bounded `level` label), replica-exchange traffic per
// chain pair, and best-cost descent (a gauge following EventBest). The
// service installs a single collector across every job's grid.
//
// Each run observes through its own Hook: the hook tallies events in plain
// fields and publishes the tally to the shared counters at every
// temperature transition (EventLevel) and at run end (EventEnd). A k-level
// run therefore touches the shared counters k times, not once or twice per
// proposal, so concurrent replicas and tempering chains do not contend on
// their cache lines; a g = 1 run (k = 1) publishes at run end only. Runs
// started and completed are counted as their events arrive.
type EngineCollector struct {
	runsStarted *obs.Counter
	runsEnded   *obs.Counter
	proposed    *obs.Counter
	accepted    *obs.Counter
	rejected    *obs.Counter
	improves    *obs.Counter
	descents    *obs.Counter
	bestCost    *obs.Gauge

	levelProposed *obs.CounterVec
	levelAccepted *obs.CounterVec

	exchAttempts *obs.CounterVec
	exchAccepts  *obs.CounterVec
}

// NewEngineCollector registers the engine metric families on reg and
// returns the collector. Registering twice on the same registry returns a
// collector over the same underlying series.
func NewEngineCollector(reg *obs.Registry) *EngineCollector {
	proposals := reg.CounterVec("mcopt_engine_proposals_total",
		"Engine move proposals by decision; rate(decision=\"proposed\") is move throughput.",
		"decision")
	return &EngineCollector{
		runsStarted: reg.Counter("mcopt_engine_runs_started_total",
			"Replica runs the engines have begun."),
		runsEnded: reg.Counter("mcopt_engine_runs_completed_total",
			"Replica runs the engines have finished."),
		proposed: proposals.With("proposed"),
		accepted: proposals.With("accepted"),
		rejected: proposals.With("rejected"),
		improves: reg.Counter("mcopt_engine_improvements_total",
			"Best-so-far cost improvements."),
		descents: reg.Counter("mcopt_engine_descents_total",
			"Figure-2 local-search descents completed."),
		bestCost: reg.Gauge("mcopt_engine_best_cost",
			"Most recent best-so-far cost reported by any run (descent telemetry, not an aggregate)."),
		levelProposed: reg.CounterVec("mcopt_engine_level_proposals_total",
			"Proposals resolved per temperature level; with mcopt_engine_level_accepted_total yields per-level acceptance rate.",
			"level"),
		levelAccepted: reg.CounterVec("mcopt_engine_level_accepted_total",
			"Proposals accepted per temperature level.",
			"level"),
		exchAttempts: reg.CounterVec("mcopt_engine_exchange_attempts_total",
			"Tempering replica-exchange attempts per adjacent chain pair (label \"c-c+1\", c the colder chain).",
			"pair"),
		exchAccepts: reg.CounterVec("mcopt_engine_exchange_accepts_total",
			"Tempering replica exchanges accepted per adjacent chain pair.",
			"pair"),
	}
}

// Hook returns the callback to install as one run's engine Hook (tee it
// with other observers via Tee). The hook keeps the run's tally, so it must
// not be shared by concurrent runs — take one per replica. The engines call
// it from a single goroutine (Tempering replays its chains' events on the
// engine goroutine), and after EventEnd it may observe another run.
func (c *EngineCollector) Hook() core.Hook {
	t := &runTally{c: c}
	return t.observe
}

// runTally is one run's unpublished event counts.
type runTally struct {
	c *EngineCollector

	proposed, accepted, rejected int64
	improves, descents           int64
	best                         float64
	bestSeen                     bool

	levels []countPair // index: level-1; proposed, accepted
	pairs  []countPair // index: colder chain of the pair; attempts, accepts
}

// countPair is the two pending counts of one label value — a temperature
// level or a chain pair — plus their series, fetched on the first flush
// that has counts for the label. Labels are bounded by the schedule length
// or the chain count, never by user input.
type countPair struct {
	n, m   int64
	nC, mC *obs.Counter
}

// at returns element i of *ps, growing the slice to hold it.
func at(ps *[]countPair, i int) *countPair {
	for len(*ps) <= i {
		*ps = append(*ps, countPair{})
	}
	return &(*ps)[i]
}

// observe folds one engine event into the tally, publishing at the flush
// points.
func (t *runTally) observe(e core.Event) {
	switch e.Kind {
	case core.EventStart:
		t.c.runsStarted.Inc()
	case core.EventPropose:
		t.proposed++
		at(&t.levels, max(e.Temp, 1)-1).n++
	case core.EventAccept:
		t.accepted++
		at(&t.levels, max(e.Temp, 1)-1).m++
	case core.EventReject:
		t.rejected++
	case core.EventLevel:
		t.flush()
	case core.EventDescent:
		t.descents++
	case core.EventBest:
		t.improves++
		t.best, t.bestSeen = e.BestCost, true
	case core.EventExchange:
		p := at(&t.pairs, max(e.Chain, 0))
		p.n++
		p.m++
	case core.EventExchangeReject:
		at(&t.pairs, max(e.Chain, 0)).n++
	case core.EventEnd:
		t.flush()
		t.c.runsEnded.Inc()
	}
}

// flush publishes the tally to the shared series and zeroes it.
func (t *runTally) flush() {
	c := t.c
	publish(c.proposed, &t.proposed)
	publish(c.accepted, &t.accepted)
	publish(c.rejected, &t.rejected)
	publish(c.improves, &t.improves)
	publish(c.descents, &t.descents)
	if t.bestSeen {
		c.bestCost.Set(t.best)
		t.bestSeen = false
	}
	publishPairs(t.levels, c.levelProposed, c.levelAccepted,
		func(i int) string { return strconv.Itoa(i + 1) })
	publishPairs(t.pairs, c.exchAttempts, c.exchAccepts,
		func(i int) string { return strconv.Itoa(i) + "-" + strconv.Itoa(i+1) })
}

// publishPairs publishes each label's pending pair to the families nv and
// mv, labelled label(i).
func publishPairs(ps []countPair, nv, mv *obs.CounterVec, label func(i int) string) {
	for i := range ps {
		p := &ps[i]
		if p.n == 0 && p.m == 0 {
			continue
		}
		if p.nC == nil {
			p.nC, p.mC = nv.With(label(i)), mv.With(label(i))
		}
		publish(p.nC, &p.n)
		publish(p.mC, &p.m)
	}
}

// publish adds a pending count to its counter and zeroes it.
func publish(ctr *obs.Counter, n *int64) {
	if *n > 0 {
		ctr.Add(*n)
		*n = 0
	}
}
