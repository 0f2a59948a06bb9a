// Package metrics is a zero-dependency registry of counters, gauges and
// fixed-bucket histograms for the simulator's observability layer (Table 3
// link volumes, Fig. 2/6/7 occupancy).
//
// A registry is built only when metrics are collected, and one goroutine
// fills and reads it within that collection: the runtime keeps its live
// counts in plain fields and publishes them with Store/Set, so the
// instruments carry no synchronisation. Snapshot iterates metrics in
// sorted name order, so rendered output (JSON, tables) is byte-stable
// across runs and across `-parallel` levels.
package metrics

import (
	"sort"
	"strconv"
)

// Kind tags a sample's value representation.
type Kind int

const (
	// KindCounter is a monotonic int64 (Sample.Int carries the value).
	KindCounter Kind = iota
	// KindGauge is a float64 level (Sample.Float carries the value).
	KindGauge
)

// Counter is a monotonic int64 instrument.
type Counter struct{ v int64 }

// Store overwrites the counter value; publication paths use it so
// re-publishing a rollup is idempotent.
func (c *Counter) Store(n int64) { c.v = n }

// Gauge is a float64 level instrument.
type Gauge struct{ v float64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.v = v }

// Histogram counts observations into fixed buckets (upper bounds, plus an
// implicit +Inf bucket) and tracks their sum.
type Histogram struct {
	bounds  []float64
	buckets []int64 // len(bounds)+1; last is +Inf
	count   int64
	sum     float64
}

// NewHistogram returns an empty histogram over the given ascending bucket
// upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.buckets[sort.SearchFloat64s(h.bounds, v)]++ // first bound >= v
	h.count++
	h.sum += v
}

// Sum reports the sum of observed values, added in observation order.
func (h *Histogram) Sum() float64 { return h.sum }

// Reset drops every observation, keeping the bounds.
func (h *Histogram) Reset() {
	clear(h.buckets)
	h.count, h.sum = 0, 0
}

// Registry holds named instruments.
type Registry struct {
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

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// PutHistogram publishes h under name; Snapshot reads it as it stands
// then.
func (r *Registry) PutHistogram(name string, h *Histogram) { r.hists[name] = h }

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
// result is sorted by name, so rendering it is deterministic.
func (r *Registry) Snapshot() Snapshot {
	out := make(Snapshot, 0, len(r.counters)+len(r.gauges)+4*len(r.hists))
	for name, c := range r.counters {
		out = append(out, Sample{Name: name, Kind: KindCounter, Int: c.v})
	}
	for name, g := range r.gauges {
		out = append(out, Sample{Name: name, Kind: KindGauge, Float: g.v})
	}
	for name, h := range r.hists {
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.buckets[i]
			out = append(out, Sample{
				Name: name + ".le." + strconv.FormatFloat(b, 'g', -1, 64),
				Kind: KindCounter, Int: cum,
			})
		}
		cum += h.buckets[len(h.bounds)]
		out = append(out, Sample{Name: name + ".le.inf", Kind: KindCounter, Int: cum})
		out = append(out, Sample{Name: name + ".count", Kind: KindCounter, Int: h.count})
		out = append(out, Sample{Name: name + ".sum", Kind: KindGauge, Float: h.sum})
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
