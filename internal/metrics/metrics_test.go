package metrics

import (
	"bytes"
	"testing"
)

func TestMetricsRegistryReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Fatal("same name must return the same gauge")
	}
}

func TestMetricsSnapshotDeterministicOrder(t *testing.T) {
	// Registration order must not leak into the snapshot: two registries
	// populated in opposite orders snapshot identically.
	build := func(names []string) Snapshot {
		r := NewRegistry()
		for i, n := range names {
			r.Counter(n).Store(int64(i) + 1)
		}
		r.Gauge("z.level").Set(2.5)
		h := NewHistogram([]float64{0.1, 1})
		h.Observe(0.5)
		r.PutHistogram("h.stall", h)
		snap := r.Snapshot()
		// Re-read counters so values match across orders.
		for _, n := range names {
			r.Counter(n).Store(42)
		}
		return snap
	}
	a := build([]string{"b", "a", "c"})
	for i := 1; i < len(a); i++ {
		if a[i-1].Name >= a[i].Name {
			t.Fatalf("snapshot not sorted: %q >= %q", a[i-1].Name, a[i].Name)
		}
	}
	r1, r2 := NewRegistry(), NewRegistry()
	for _, n := range []string{"x", "y"} {
		r1.Counter(n).Store(1)
	}
	for _, n := range []string{"y", "x"} {
		r2.Counter(n).Store(1)
	}
	if !r1.Snapshot().Equal(r2.Snapshot()) {
		t.Fatal("registration order changed the snapshot")
	}
}

func TestMetricsHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.001, 0.05, 5} {
		h.Observe(v)
	}
	r.PutHistogram("stall", h)
	snap := r.Snapshot()
	want := map[string]int64{
		"stall.le.0.001": 2, // cumulative: 0.0005 and the boundary 0.001
		"stall.le.0.01":  2,
		"stall.le.0.1":   3,
		"stall.le.inf":   4,
		"stall.count":    4,
	}
	for name, v := range want {
		s, ok := snap.Get(name)
		if !ok || s.Int != v {
			t.Fatalf("%s = %+v, want %d", name, s, v)
		}
	}
	if s, ok := snap.Get("stall.sum"); !ok || s.Float != 0.0005+0.001+0.05+5 || h.Sum() != s.Float {
		t.Fatalf("stall.sum = %+v, Sum() = %v", s, h.Sum())
	}
	// Reset empties the published histogram in place.
	h.Reset()
	if s, _ := r.Snapshot().Get("stall.le.inf"); s.Int != 0 || h.Sum() != 0 {
		t.Fatalf("after Reset: le.inf = %d, sum = %v, want 0 and 0", s.Int, h.Sum())
	}
}

func TestMetricsJSONByteStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache.hits").Store(3)
	r.Gauge("res.gpu0.kernel.busy_seconds").Set(1.25)
	var a, b bytes.Buffer
	if err := r.Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two renders differ:\n%s\n%s", a.String(), b.String())
	}
	want := "{\n  \"cache.hits\": 3,\n  \"res.gpu0.kernel.busy_seconds\": 1.25\n}"
	if a.String() != want {
		t.Fatalf("JSON = %q, want %q", a.String(), want)
	}
	var empty bytes.Buffer
	if err := (Snapshot{}).WriteJSON(&empty); err != nil {
		t.Fatal(err)
	}
	if empty.String() != "{}" {
		t.Fatalf("empty JSON = %q", empty.String())
	}
}
