package sim

import (
	"math"
	"testing"
)

// TestServerBusyTimeExcludesCancelledQueue is the regression test for the
// submission-time accrual bug: three FIFO jobs are queued back-to-back and
// the engine is stopped mid-service of the second. Only the first job's
// service interval may count as busy time — the pre-fix accounting credited
// all three intervals at Submit and reported 3s of utilization for 1s of
// delivered service.
func TestServerBusyTimeExcludesCancelledQueue(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "link", 100)
	s.Submit(100, 0, nil) // service [0,1]
	s.Submit(100, 0, nil) // service [1,2]
	s.Submit(100, 0, nil) // service [2,3]
	e.At(1.5, func() { e.Stop() })
	e.Run()
	st := s.Stats()
	if st.Submitted != 3 {
		t.Fatalf("submitted = %d, want 3", st.Submitted)
	}
	if st.Served != 1 {
		t.Fatalf("served = %d, want 1: jobs drained by the abort were never served", st.Served)
	}
	if st.Busy != 1 {
		t.Fatalf("busy = %v, want 1s: only the completed service interval counts", st.Busy)
	}
	if st.Units != 100 {
		t.Fatalf("units = %g, want 100: undelivered payloads must not count", st.Units)
	}
	if st.InflightMax != 3 {
		t.Fatalf("in-flight high-water = %d, want 3", st.InflightMax)
	}
}

// TestServerStatsQueuedNotServed pins the served/queued distinction during
// a healthy run: while the first job is still in service, the second is
// submitted but must not yet appear in the served-work counters.
func TestServerStatsQueuedNotServed(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "link", 100)
	s.Submit(100, 0, nil) // service [0,1]
	s.Submit(100, 0, nil) // service [1,2]
	e.At(0.5, func() {
		st := s.Stats()
		if st.Submitted != 2 || st.Served != 0 {
			t.Errorf("mid-service stats = %+v, want 2 submitted / 0 served", st)
		}
		if st.Busy != 0 || st.Units != 0 {
			t.Errorf("mid-service served-work = busy %v units %g, want zero", st.Busy, st.Units)
		}
	})
	e.Run()
	st := s.Stats()
	if st.Served != 2 || st.Busy != 2 || st.Units != 200 {
		t.Fatalf("final stats = %+v, want 2 served, 2s busy, 200 units", st)
	}
}

// TestFairServerStatsUnderCancellation checks the processor-sharing model's
// unified stats under an engine abort: busy time covers exactly the time
// service was actually delivered, and the unfinished job never reaches
// Served/Units.
func TestFairServerStatsUnderCancellation(t *testing.T) {
	e := NewEngine()
	s := NewFairServer(e, "ps", 100)
	s.Submit(100, 0, nil) // shared until t=2, then done
	s.Submit(300, 0, nil) // would finish at t=4
	e.At(3, func() { e.Stop() })
	e.Run()
	st := s.Stats()
	if st.Submitted != 2 || st.Served != 1 {
		t.Fatalf("stats = %+v, want 2 submitted / 1 served", st)
	}
	if math.Abs(st.Units-100) > 1e-6 {
		t.Fatalf("units = %g, want 100: the aborted job delivered nothing countable", st.Units)
	}
	// The last processed instant before the abort is the small job's
	// completion at t=2; service up to there is delivered work.
	if math.Abs(float64(st.Busy-2)) > 1e-6 {
		t.Fatalf("busy = %v, want 2s (time actually simulated in service)", st.Busy)
	}
	if st.InflightMax != 2 {
		t.Fatalf("in-flight high-water = %d, want 2", st.InflightMax)
	}
}

// TestResourceStatsUnifiedInterface pins that both models report Stats
// with identical semantics on a clean run.
func TestResourceStatsUnifiedInterface(t *testing.T) {
	type resource interface {
		Submit(size float64, overhead Time, done JobDone)
		Stats() ResourceStats
	}
	for _, tc := range []struct {
		name string
		mk   func(e *Engine) resource
	}{
		{"fifo", func(e *Engine) resource { return NewServer(e, "r", 10) }},
		{"fair", func(e *Engine) resource { return NewFairServer(e, "r", 10) }},
	} {
		e := NewEngine()
		r := tc.mk(e)
		r.Submit(10, 0, nil)
		r.Submit(10, 0, nil)
		e.Run()
		st := r.Stats()
		if st.Submitted != 2 || st.Served != 2 {
			t.Fatalf("%s: stats = %+v, want 2 submitted and served", tc.name, st)
		}
		if math.Abs(st.Units-20) > 1e-9 {
			t.Fatalf("%s: units = %g, want 20", tc.name, st.Units)
		}
		if math.Abs(float64(st.Busy-2)) > 1e-9 {
			t.Fatalf("%s: busy = %v, want 2s", tc.name, st.Busy)
		}
	}
}
