package metrics

import (
	"bytes"
	"sync"
	"testing"
)

func TestMetricsNilSafety(t *testing.T) {
	// The entire disabled path: a nil registry hands out nil handles and
	// every operation on them is a no-op.
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 2})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Add(5)
	c.Store(7)
	g.Set(1)
	g.Add(2)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", snap)
	}
}

func TestMetricsRegistryReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Fatal("same name must return the same gauge")
	}
	if r.Histogram("a", []float64{1}) != r.Histogram("a", []float64{1}) {
		t.Fatal("same name must return the same histogram")
	}
}

func TestMetricsSnapshotDeterministicOrder(t *testing.T) {
	// Registration order must not leak into the snapshot: two registries
	// populated in opposite orders snapshot identically.
	build := func(names []string) Snapshot {
		r := NewRegistry()
		for i, n := range names {
			r.Counter(n).Add(int64(i) + 1)
		}
		r.Gauge("z.level").Set(2.5)
		r.Histogram("h.stall", []float64{0.1, 1}).Observe(0.5)
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
		r1.Counter(n).Add(1)
	}
	for _, n := range []string{"y", "x"} {
		r2.Counter(n).Add(1)
	}
	if !r1.Snapshot().Equal(r2.Snapshot()) {
		t.Fatal("registration order changed the snapshot")
	}
}

func TestMetricsHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stall", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.001, 0.05, 5} {
		h.Observe(v)
	}
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
	if s, ok := snap.Get("stall.sum"); !ok || s.Float != 0.0005+0.001+0.05+5 {
		t.Fatalf("stall.sum = %+v", s)
	}
}

func TestMetricsJSONByteStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache.hits").Add(3)
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

// TestMetricsConcurrentScrape drives updates and Snapshot readers from
// many goroutines at once, run under -race by `make metrics-race`.
func TestMetricsConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("updates").Add(1)
				r.Gauge("level").Set(float64(i))
				r.Histogram("obs", []float64{50, 150}).Observe(float64(i))
			}
		}()
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				snap := r.Snapshot()
				for j := 1; j < len(snap); j++ {
					if snap[j-1].Name >= snap[j].Name {
						t.Errorf("concurrent snapshot not sorted: %q >= %q", snap[j-1].Name, snap[j].Name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("updates").Value(); got != 4*200 {
		t.Fatalf("updates = %d, want 800", got)
	}
}
