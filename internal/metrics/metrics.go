// Package metrics is a zero-dependency registry of counters, gauges and
// fixed-bucket histograms for the simulator's observability layer (Table 3
// link volumes, Fig. 2/6/7 occupancy).
//
// Two properties drive the design:
//
//   - Deterministic output. Snapshot iterates metrics in sorted name order,
//     so rendered output (JSON, tables) is byte-stable across runs and
//     across `-parallel` levels. All instrument updates in one simulated
//     run happen on that run's single sim goroutine, so the values
//     themselves are deterministic too; atomics only make a Snapshot taken
//     concurrently with updates safe.
//
//   - Free when disabled. Every instrument handle is nil-safe: a nil
//     *Counter/*Gauge/*Histogram ignores updates, and a nil *Registry hands
//     out nil handles. Code paths instrumented against a possibly-nil
//     registry therefore cost one predictable branch and zero allocations
//     when metrics are off.
package metrics

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind tags a sample's value representation.
type Kind int

const (
	// KindCounter is a monotonic int64 (Sample.Int carries the value).
	KindCounter Kind = iota
	// KindGauge is a float64 level (Sample.Float carries the value).
	KindGauge
)

// Counter is a monotonic int64 instrument. The zero value is ready to use;
// a nil *Counter is a no-op.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Store overwrites the counter value; publication paths use it so
// re-publishing a rollup is idempotent (no-op on nil).
func (c *Counter) Store(n int64) {
	if c != nil {
		c.v.Store(n)
	}
}

// Value reads the counter (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 level instrument. The zero value is ready to use; a
// nil *Gauge is a no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adds v (no-op on nil).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (upper bounds, plus an
// implicit +Inf bucket) and tracks their sum. A nil *Histogram is a no-op.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sum     Gauge
}

// Observe records one value (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Registry holds named instruments. A nil *Registry hands out nil (no-op)
// handles, which is the entire disabled path. Registration is guarded by a
// mutex; instrument updates and reads are atomic, so taking a Snapshot
// concurrently with updates is safe.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the given ascending bucket
// upper bounds, creating it on first use (nil on a nil registry). The
// bounds of an existing histogram are not re-checked: the first
// registration wins.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{bounds: append([]float64(nil), bounds...)}
		h.buckets = make([]atomic.Int64, len(h.bounds)+1)
		r.hists[name] = h
	}
	return h
}

// Sample is one rendered metric value.
type Sample struct {
	Name  string
	Kind  Kind
	Int   int64   // KindCounter value
	Float float64 // KindGauge value
}

// FormatValue renders the sample value canonically: integers for counters,
// shortest round-trip float for gauges. This is the byte-stability contract
// of every sink.
func (s Sample) FormatValue() string {
	if s.Kind == KindCounter {
		return strconv.FormatInt(s.Int, 10)
	}
	return strconv.FormatFloat(s.Float, 'g', -1, 64)
}

// Snapshot is a point-in-time reading of a registry, sorted by name.
type Snapshot []Sample

// Snapshot reads every instrument. Histograms flatten into cumulative
// per-bucket counters (<name>.le.<bound>, Prometheus-style cumulative
// semantics, with .le.inf last), a .count counter and a .sum gauge. The
// result is sorted by name, so rendering it is deterministic. A nil
// registry yields a nil snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, 0, len(r.counters)+len(r.gauges)+4*len(r.hists))
	for name, c := range r.counters {
		out = append(out, Sample{Name: name, Kind: KindCounter, Int: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, Sample{Name: name, Kind: KindGauge, Float: g.Value()})
	}
	for name, h := range r.hists {
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.buckets[i].Load()
			out = append(out, Sample{
				Name: name + ".le." + strconv.FormatFloat(b, 'g', -1, 64),
				Kind: KindCounter, Int: cum,
			})
		}
		cum += h.buckets[len(h.bounds)].Load()
		out = append(out, Sample{Name: name + ".le.inf", Kind: KindCounter, Int: cum})
		out = append(out, Sample{Name: name + ".count", Kind: KindCounter, Int: h.count.Load()})
		out = append(out, Sample{Name: name + ".sum", Kind: KindGauge, Float: h.sum.Value()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get finds the named sample by binary search (snapshots are sorted).
func (s Snapshot) Get(name string) (Sample, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i], true
	}
	return Sample{}, false
}

// Equal reports whether two snapshots carry identical names and values.
func (s Snapshot) Equal(o Snapshot) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}
