package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	end := e.Run()
	if end != 5 {
		t.Fatalf("final clock = %v, want 5", end)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestEngineHandlersScheduleMore(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	end := e.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if end != 100 {
		t.Fatalf("end = %v, want 100", end)
	}
}

func TestEngineRunUntilStopsClock(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(10, func() { fired = true })
	now := e.RunUntil(5)
	if fired {
		t.Fatal("event beyond deadline fired")
	}
	if now != 5 {
		t.Fatalf("clock = %v, want 5", now)
	}
	e.Run()
	if !fired {
		t.Fatal("event did not fire after resuming")
	}
}

// TestRunUntilAdvancesClockOnDrain locks the uniform clock contract of
// RunUntil: both exit paths — queue drained, and next event beyond the
// deadline — leave the clock exactly on a finite deadline. Before the fix
// the drain path returned with the clock stuck at the last event (or 0),
// while the other path advanced, so callers saw two different contracts.
func TestRunUntilAdvancesClockOnDrain(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {})
	if got := e.RunUntil(5); got != 5 {
		t.Errorf("drained RunUntil(5) returned %v, want 5", got)
	}
	if e.Now() != 5 {
		t.Errorf("drained RunUntil(5) left clock at %v, want 5", e.Now())
	}

	// Empty queue from the start: same contract.
	e2 := NewEngine()
	if got := e2.RunUntil(3); got != 3 {
		t.Errorf("empty RunUntil(3) returned %v, want 3", got)
	}

	// Next-event-later path, unchanged behavior.
	e3 := NewEngine()
	e3.At(10, func() {})
	if got := e3.RunUntil(4); got != 4 {
		t.Errorf("RunUntil(4) with event at 10 returned %v, want 4", got)
	}
	if e3.Pending() != 1 {
		t.Errorf("event beyond deadline dropped: pending = %d", e3.Pending())
	}

	// Infinite deadline still parks the clock at the last event.
	e4 := NewEngine()
	e4.At(2, func() {})
	if got := e4.Run(); got != 2 {
		t.Errorf("Run() returned %v, want 2", got)
	}

	// A stop pins the clock at the stop point, not the deadline.
	e5 := NewEngine()
	e5.At(1, func() { e5.Stop() })
	e5.At(2, func() {})
	if got := e5.RunUntil(5); got != 1 {
		t.Errorf("stopped RunUntil(5) returned %v, want 1", got)
	}
}

func TestEngineRunWhile(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() { n++ })
	}
	e.RunWhile(func() bool { return n < 4 })
	if n != 4 {
		t.Fatalf("n = %d, want 4", n)
	}
	if e.Now() != 4 {
		t.Fatalf("clock = %v, want 4", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	NewEngine().After(-1, func() {})
}

func TestServerFIFOAndRate(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "link", 100) // 100 units/s
	var ends []Time
	s.Submit(100, 0, func(st, en Time) {
		if st != 0 || en != 1 {
			t.Errorf("job1 interval [%v,%v], want [0,1]", st, en)
		}
		ends = append(ends, en)
	})
	s.Submit(200, 0, func(st, en Time) {
		if st != 1 || en != 3 {
			t.Errorf("job2 interval [%v,%v], want [1,3]", st, en)
		}
		ends = append(ends, en)
	})
	e.Run()
	if len(ends) != 2 {
		t.Fatalf("completions = %d, want 2", len(ends))
	}
	st := s.Stats()
	if st.Submitted != 2 || st.Served != 2 || st.Units != 300 || st.Busy != 3 {
		t.Fatalf("stats = %+v, want 2 submitted/served, 300 units, 3s busy", st)
	}
	if st.InflightMax != 2 {
		t.Fatalf("in-flight high-water = %d, want 2 (second job queued behind the first)", st.InflightMax)
	}
}

func TestServerOverhead(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "eng", 1000)
	var end Time
	s.Submit(1000, Microseconds(10), func(_, en Time) { end = en })
	e.Run()
	want := Time(1.0) + Microseconds(10)
	if end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestServerIdleGapResets(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "x", 1)
	var secondStart Time
	s.Submit(1, 0, nil) // busy [0,1]
	e.At(5, func() {
		s.Submit(1, 0, func(st, _ Time) { secondStart = st })
	})
	e.Run()
	if secondStart != 5 {
		t.Fatalf("second job started at %v, want 5 (after idle gap)", secondStart)
	}
}

func TestTransferWaitsForAllHops(t *testing.T) {
	e := NewEngine()
	fast := NewServer(e, "fast", 1000)
	slow := NewServer(e, "slow", 10)
	var start, end Time
	done := false
	Transfer(e, []Resource{fast, slow}, 100, 0, func(st, en Time) {
		start, end, done = st, en, true
	})
	e.Run()
	if !done {
		t.Fatal("transfer never completed")
	}
	if start != 0 {
		t.Fatalf("start = %v, want 0", start)
	}
	if end != 10 { // bottleneck: 100 units at 10/s
		t.Fatalf("end = %v, want 10 (slowest hop)", end)
	}
}

func TestTransferContendsPerHop(t *testing.T) {
	e := NewEngine()
	shared := NewServer(e, "switch", 100)
	var e1, e2 Time
	Transfer(e, []Resource{shared}, 100, 0, func(_, en Time) { e1 = en })
	Transfer(e, []Resource{shared}, 100, 0, func(_, en Time) { e2 = en })
	e.Run()
	if e1 != 1 || e2 != 2 {
		t.Fatalf("ends = %v,%v, want 1,2 (serialized on shared hop)", e1, e2)
	}
}

// Property: for any job sizes, a FIFO server's completion times are the
// prefix sums of the individual service times, and completions preserve
// submission order.
func TestServerPrefixSumProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		s := NewServer(e, "p", 50)
		k := int(n%20) + 1
		var want Time
		ok := true
		var prev Time
		for i := 0; i < k; i++ {
			size := float64(rng.Intn(1000) + 1)
			want += Time(size / 50)
			expected := want
			s.Submit(size, 0, func(_, en Time) {
				if en != expected || en < prev {
					ok = false
				}
				prev = en
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine is deterministic — running the same randomized event
// program twice yields the same trace.
func TestEngineDeterminismProperty(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var trace []Time
		for i := 0; i < 50; i++ {
			at := Time(rng.Float64() * 100)
			e.At(at, func() {
				trace = append(trace, e.Now())
				if rng.Intn(2) == 0 {
					e.After(Time(rng.Float64()), func() { trace = append(trace, e.Now()) })
				}
			})
		}
		e.Run()
		return trace
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
