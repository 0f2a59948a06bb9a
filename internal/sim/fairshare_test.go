package sim

import (
	"math"
	"testing"
)

func TestFairServerSingleJob(t *testing.T) {
	e := NewEngine()
	s := NewFairServer(e, "ps", 100)
	var end Time
	s.Submit(200, 0, JobFunc(func(_, en Time) { end = en }))
	e.Run()
	if math.Abs(float64(end-2)) > 1e-9 {
		t.Fatalf("single job end = %v, want 2", end)
	}
}

func TestFairServerEqualShare(t *testing.T) {
	// Two equal jobs submitted together share the capacity and finish at
	// the same instant, at twice the solo duration.
	e := NewEngine()
	s := NewFairServer(e, "ps", 100)
	var e1, e2 Time
	s.Submit(100, 0, JobFunc(func(_, en Time) { e1 = en }))
	s.Submit(100, 0, JobFunc(func(_, en Time) { e2 = en }))
	e.Run()
	if math.Abs(float64(e1-2)) > 1e-9 || math.Abs(float64(e2-2)) > 1e-9 {
		t.Fatalf("ends = %v, %v, want 2, 2 (fair sharing)", e1, e2)
	}
}

func TestFairServerLateArrival(t *testing.T) {
	// Job A (100 units) starts alone; at t=0.5 job B (50 units) joins.
	// A: 50 units alone (0.5s), then shares: both need 50 units at 50/s
	// each → 1s more. Both end at 1.5.
	e := NewEngine()
	s := NewFairServer(e, "ps", 100)
	var ea, eb Time
	s.Submit(100, 0, JobFunc(func(_, en Time) { ea = en }))
	e.At(0.5, func() {
		s.Submit(50, 0, JobFunc(func(_, en Time) { eb = en }))
	})
	e.Run()
	if math.Abs(float64(ea-1.5)) > 1e-6 || math.Abs(float64(eb-1.5)) > 1e-6 {
		t.Fatalf("ends = %v, %v, want 1.5, 1.5", ea, eb)
	}
}

func TestFairServerUnequalJobs(t *testing.T) {
	// Jobs of 100 and 300 units at rate 100: shared until the small one
	// finishes at t=2 (each got 100), then the big one runs alone for its
	// remaining 200 → ends at 4.
	e := NewEngine()
	s := NewFairServer(e, "ps", 100)
	var small, big Time
	s.Submit(100, 0, JobFunc(func(_, en Time) { small = en }))
	s.Submit(300, 0, JobFunc(func(_, en Time) { big = en }))
	e.Run()
	if math.Abs(float64(small-2)) > 1e-6 {
		t.Fatalf("small end = %v, want 2", small)
	}
	if math.Abs(float64(big-4)) > 1e-6 {
		t.Fatalf("big end = %v, want 4", big)
	}
	st := s.Stats()
	if st.Submitted != 2 || st.Served != 2 {
		t.Fatalf("stats = %+v, want 2 submitted and served", st)
	}
	if math.Abs(st.Units-400) > 1e-6 {
		t.Fatalf("units = %g, want 400", st.Units)
	}
	if math.Abs(float64(st.Busy-4)) > 1e-6 {
		t.Fatalf("busy = %v, want 4", st.Busy)
	}
	if st.InflightMax != 2 {
		t.Fatalf("in-flight high-water = %d, want 2", st.InflightMax)
	}
}

func TestFairServerAggregateThroughputMatchesFIFO(t *testing.T) {
	// Same total work: the last completion time equals the FIFO makespan.
	run := func(fifo bool) Time {
		e := NewEngine()
		var last Time
		rec := func(_, en Time) {
			if en > last {
				last = en
			}
		}
		if fifo {
			s := NewServer(e, "f", 10)
			for i := 0; i < 5; i++ {
				s.Submit(100, 0, JobFunc(rec))
			}
		} else {
			s := NewFairServer(e, "p", 10)
			for i := 0; i < 5; i++ {
				s.Submit(100, 0, JobFunc(rec))
			}
		}
		e.Run()
		return last
	}
	a, b := run(true), run(false)
	if math.Abs(float64(a-b)) > 1e-6 {
		t.Fatalf("makespans differ: FIFO %v vs PS %v", a, b)
	}
}

func TestFairServerDeterministic(t *testing.T) {
	run := func() []float64 {
		e := NewEngine()
		s := NewFairServer(e, "ps", 50)
		var out []float64
		for i := 1; i <= 10; i++ {
			size := float64(i * 30)
			at := Time(float64(i) * 0.1)
			e.At(at, func() {
				s.Submit(size, 0, JobFunc(func(_, en Time) { out = append(out, float64(en)) }))
			})
		}
		e.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic fair server")
		}
	}
}

// Compile-time Resource compliance for both contention models.
var (
	_ Resource = (*Server)(nil)
	_ Resource = (*FairServer)(nil)
)

func TestFairServerOverheadFolded(t *testing.T) {
	e := NewEngine()
	s := NewFairServer(e, "ps", 100)
	var end Time
	s.Submit(100, Time(0.5), JobFunc(func(_, en Time) { end = en }))
	e.Run()
	// 100 units at 100/s + 0.5s overhead folded into units.
	if math.Abs(float64(end-1.5)) > 1e-9 {
		t.Fatalf("end = %v, want 1.5", end)
	}
	if st := s.ServiceTime(100, Time(0.5)); math.Abs(float64(st-1.5)) > 1e-9 {
		t.Fatalf("service time = %v, want 1.5", st)
	}
}

func TestFairServerTinyResidualTerminates(t *testing.T) {
	// Regression: residual work smaller than the clock's ulp must not
	// wedge the wake-up loop at a single instant.
	e := NewEngine()
	s := NewFairServer(e, "ps", 1.58e10) // PCIe-switch-like byte rate
	done := 0
	// Jobs sized so shares leave sub-ulp residues at a large clock value.
	e.At(1000, func() {
		for i := 0; i < 7; i++ {
			s.Submit(3.3554432e7+float64(i)*0.1, 0, JobFunc(func(_, _ Time) { done++ }))
		}
	})
	e.Run()
	if done != 7 {
		t.Fatalf("completed %d jobs, want 7", done)
	}
}

func TestFairServerActiveCount(t *testing.T) {
	e := NewEngine()
	s := NewFairServer(e, "ps", 10)
	s.Submit(100, 0, nil)
	s.Submit(100, 0, nil)
	if s.Active() != 2 {
		t.Fatalf("active = %d", s.Active())
	}
	e.Run()
	if s.Active() != 0 {
		t.Fatalf("active after drain = %d", s.Active())
	}
}

// TestFairServerSubmitFromCompletionCallback is the regression test for the
// re-entrancy bug: a done callback that Submits back into the same server
// mid-advance used to trigger a nested advance that completed the remaining
// finished jobs, after which the outer completion loop credited and
// notified them a second time — double-counted Served/Units and
// double-fired callbacks. The two initial jobs are sized within finishEps
// of each other so they complete in the same advance with a deterministic
// order (A strictly first).
func TestFairServerSubmitFromCompletionCallback(t *testing.T) {
	e := NewEngine()
	s := NewFairServer(e, "ps", 100) // finishEps = 1e-10
	var bDone, cDone int
	var cEnd Time
	// A and B share until t=2; B carries 5e-11 more work than A, under the
	// finish threshold, so both complete in the same advance, A first.
	s.Submit(100, 0, JobFunc(func(_, _ Time) {
		// Re-enter from the completion callback: C services alone after t=2.
		s.Submit(50, 0, JobFunc(func(_, en Time) { cDone++; cEnd = en }))
	}))
	s.Submit(100+5e-11, 0, JobFunc(func(_, _ Time) { bDone++ }))
	e.Run()
	if bDone != 1 {
		t.Fatalf("B's done fired %d times, want exactly once", bDone)
	}
	if cDone != 1 {
		t.Fatalf("C's done fired %d times, want exactly once", cDone)
	}
	if math.Abs(float64(cEnd-2.5)) > 1e-6 {
		t.Fatalf("C end = %v, want 2.5 (50 units alone at 100/s from t=2)", cEnd)
	}
	st := s.Stats()
	if st.Served != 3 {
		t.Fatalf("served = %d, want 3: completions must be credited exactly once", st.Served)
	}
	if math.Abs(st.Units-250) > 1e-6 {
		t.Fatalf("units = %g, want 250: no double-crediting of completed sizes", st.Units)
	}
	if s.Active() != 0 {
		t.Fatalf("active after drain = %d, want 0", s.Active())
	}
}

// TestFairServerCompletionOrderDeterministic pins the completion order of
// jobs that are indistinguishable by start time and residual work: they
// must complete (and notify) in submission order, not map-iteration order.
func TestFairServerCompletionOrderDeterministic(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		s := NewFairServer(e, "ps", 100)
		var order []int
		for i := 0; i < 5; i++ {
			s.Submit(100, 0, JobFunc(func(_, _ Time) { order = append(order, i) }))
		}
		e.Run()
		for i, got := range order {
			if got != i {
				t.Fatalf("trial %d: completion order %v, want submission order", trial, order)
			}
		}
		if len(order) != 5 {
			t.Fatalf("trial %d: %d completions, want 5", trial, len(order))
		}
	}
}
