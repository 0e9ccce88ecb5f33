// Package obs is the service observability layer: a stdlib-only metrics
// registry (counters, gauges, histograms with explicit buckets, label
// sets) with Prometheus text-format exposition, a strict parser for that
// format (used by mcoptctl and the tests that pin exposition
// well-formedness), and structured trace spans (JSONL records with
// span/parent IDs and monotonic durations).
//
// The registry is deliberately small: every instrument is identified by a
// family (name, help, type) plus an ordered list of label names, and every
// child by its label values. Exposition output is deterministic — families
// sort by name, children by label values — so scrapes can be diffed and
// golden-tested. Cardinality discipline is the caller's job; the intended
// rule (see DESIGN.md §11) is that label values come from small closed sets
// (route patterns, states, temperature levels), never from user input or
// job IDs. As a backstop against a leak — a caller feeding unbounded label
// values into a Vec that is observed but never scraped would otherwise grow
// the child cache forever — each family caps its cache at
// MaxChildrenPerFamily: With calls beyond the cap return live, fully
// functional instruments that are simply never cached or exported, and the
// family counts the overflow in its Dropped total.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric family types, as exposed on # TYPE lines.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Label is one name/value pair attached to a sample.
type Label struct {
	Name, Value string
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	consts   []Label  // prepended to every sample's label set
	collects []func() // run before each exposition (gauge refresh)
}

// NewRegistry returns an empty registry. The given constant labels are
// attached to every exported sample — the service uses this to stamp the
// buildinfo version so mixed-version fleets are distinguishable in scrapes.
func NewRegistry(constLabels ...Label) *Registry {
	sorted := append([]Label(nil), constLabels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	return &Registry{
		families: map[string]*family{},
		consts:   sorted,
	}
}

// OnCollect registers a callback run at the start of every exposition,
// before any sample is rendered. Callers use it to refresh gauges from
// sources of truth (queue depths, per-state job counts) instead of keeping
// them incrementally up to date.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	r.collects = append(r.collects, fn)
	r.mu.Unlock()
}

// MaxChildrenPerFamily bounds each family's label-value cache. The cap is
// far above any legitimate closed label set (the busiest built-in family,
// per-level temperature metrics, stays under a hundred children) and exists
// only to turn an unbounded-cardinality bug into a bounded, observable one:
// beyond the cap, With hands out working instruments that are not retained,
// so the process leaks nothing while the offending samples silently stop
// accumulating. family.dropped counts such misses.
const MaxChildrenPerFamily = 1024

// family is one named metric with a fixed type and label-name list.
type family struct {
	name, help, typ string
	labelNames      []string
	buckets         []float64 // histogram upper bounds, ascending (no +Inf)

	mu       sync.Mutex
	children map[string]child // key: joined escaped label values
	dropped  int64            // With misses refused by MaxChildrenPerFamily
}

type child interface{ labels() []string }

// register creates or fetches a family, enforcing that a name is never
// reused with a different type or label set.
func (r *Registry) register(name, help, typ string, labelNames []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labelNames, labelNames) {
			panic(fmt.Sprintf("obs: metric %q re-registered with different type or labels", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		children:   map[string]child{},
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// childKey joins label values into a map key; escaping keeps distinct
// value tuples distinct even when values contain the separator.
func childKey(values []string) string {
	var b strings.Builder
	for i, v := range values {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(v)
	}
	return b.String()
}

// child fetches or creates the instrument for the given label values.
func (f *family) child(values []string, make func([]string) child) child {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label value(s), got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := make(append([]string(nil), values...))
	if len(f.children) >= MaxChildrenPerFamily {
		// Cardinality bug upstream: hand the caller a working instrument,
		// but do not retain it — memory stays bounded and the exposition
		// keeps only the first MaxChildrenPerFamily label sets.
		f.dropped++
		return c
	}
	f.children[key] = c
	return c
}

// Dropped reports how many With calls the cardinality cap refused to cache.
// Non-zero means some caller is labeling with an unbounded value set.
func (v *CounterVec) Dropped() int64 { return v.f.droppedCount() }

// Dropped reports how many With calls the cardinality cap refused to cache.
func (v *GaugeVec) Dropped() int64 { return v.f.droppedCount() }

// Dropped reports how many With calls the cardinality cap refused to cache.
func (v *HistogramVec) Dropped() int64 { return v.f.droppedCount() }

func (f *family) droppedCount() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// Counter is a monotonically increasing integer counter. Safe for
// concurrent use; Inc/Add are single atomic adds. Concurrent writers still
// contend for the counter's cache line, so per-event paths should tally
// locally and Add in batches, as the engine bridge's per-run hooks do
// (BenchmarkHookObsParallel shows the cost).
type Counter struct {
	vals []string
	v    atomic.Int64
}

func (c *Counter) labels() []string { return c.vals }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must be non-negative (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decrement")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down.
type Gauge struct {
	vals []string
	bits atomic.Uint64
}

func (g *Gauge) labels() []string { return g.vals }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a cumulative histogram over explicit upper bounds, plus sum
// and count. Observe takes a mutex: histogram observations are per HTTP
// request or per job, not per engine move, so contention is negligible.
type Histogram struct {
	vals   []string
	upper  []float64 // ascending; +Inf is implicit
	mu     sync.Mutex
	counts []int64 // len(upper)+1, last bucket is +Inf overflow
	sum    float64
	count  int64
}

func (h *Histogram) labels() []string { return h.vals }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// snapshot copies the histogram state under its lock.
func (h *Histogram) snapshot() (counts []int64, sum float64, count int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.counts...), h.sum, h.count
}

// Vec types: label-set-indexed families. With returns the child for the
// given label values, creating it on first use; callers on hot paths should
// cache the returned instrument rather than calling With per event.

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func(vals []string) child { return &Counter{vals: vals} }).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func(vals []string) child { return &Gauge{vals: vals} }).(*Gauge)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func(vals []string) child {
		h := &Histogram{vals: vals, upper: v.f.buckets}
		h.counts = make([]int64, len(h.upper)+1)
		return h
	}).(*Histogram)
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or fetches) a counter family with label names.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, TypeCounter, labelNames, nil)}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or fetches) a gauge family with label names.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, TypeGauge, labelNames, nil)}
}

// Histogram registers (or fetches) an unlabeled histogram over the given
// ascending upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or fetches) a histogram family with label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
	}
	return &HistogramVec{f: r.register(name, help, TypeHistogram, labelNames, buckets)}
}

// DurationBuckets is the default latency bucket ladder, in seconds: ~1ms to
// ~1min on a log scale, chosen so that both a fast status probe and a
// multi-second replica grid land in resolved buckets.
func DurationBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}
