package sim

import (
	"fmt"
	"math"
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

// nopHandler is a Handler that does nothing.
type nopHandler struct{}

func (nopHandler) Fire() {}

// TestEngineNaNTimePanics: a NaN time compares false against every other
// time, so it must be refused like a past time rather than enter the heap
// and break its (time, sequence) order.
func TestEngineNaNTimePanics(t *testing.T) {
	nan := Time(math.NaN())
	e := NewEngine()
	e.At(1, func() {})
	for name, schedule := range map[string]func(){
		"At":        func() { e.At(nan, func() {}) },
		"AtHandler": func() { e.AtHandler(nan, nopHandler{}) },
		"After":     func() { e.After(nan, func() {}) },
		"RunBefore": func() { e.RunBefore(nan) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a NaN time", name)
				}
			}()
			schedule()
		}()
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after the rejected calls, want 1", e.Pending())
	}
	if end := e.Run(); end != 1 {
		t.Fatalf("run ended at %v, want 1", end)
	}
}

// TestRunBeforeMatchesUpfront: streaming a time-sorted input through
// RunBefore fires the same events in the same order, on the same clock, as
// scheduling the whole input up front with At. The stream has duplicate
// timestamps, its handlers schedule events at their own instant and later
// (some landing on a later item's timestamp), and Stop is called both by a
// stream item and by an event that RunBefore fires.
func TestRunBeforeMatchesUpfront(t *testing.T) {
	times := []Time{0, 0, 0.5, 1, 1, 1, 1.5, 2.5, 3, 3, 4, 4.5, 7, 7}
	run := func(stream bool, stopTag string) ([]string, Time, int) {
		e := NewEngine()
		var log []string
		rec := func(tag string) {
			log = append(log, fmt.Sprintf("%s@%v", tag, e.Now()))
			if tag == stopTag {
				e.Stop()
			}
		}
		item := func(i int) {
			rec(fmt.Sprintf("item%d", i))
			e.After(0, func() { rec(fmt.Sprintf("now%d", i)) })
			e.After(Time(i%4)*0.5, func() {
				rec(fmt.Sprintf("later%d", i))
				e.After(1, func() { rec(fmt.Sprintf("chain%d", i)) })
			})
		}
		if stream {
			for i, at := range times {
				if e.RunBefore(at); e.Stopped() {
					break
				}
				item(i)
			}
		} else {
			for i, at := range times {
				e.At(at, func() { item(i) })
			}
		}
		e.Run()
		return log, e.Now(), e.Pending()
	}
	for _, stopTag := range []string{"", "item6", "later3", "chain1"} {
		want, wantEnd, _ := run(false, stopTag)
		got, gotEnd, pending := run(true, stopTag)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("stop %q: streamed order\n%v\nwant up-front order\n%v", stopTag, got, want)
		}
		if gotEnd != wantEnd {
			t.Fatalf("stop %q: streamed clock ends at %v, want %v", stopTag, gotEnd, wantEnd)
		}
		if stopTag == "" && pending != 0 {
			t.Fatalf("streamed run left %d events pending", pending)
		}
	}
}

// TestRunBeforeClock: RunBefore leaves events at t itself pending, moves the
// clock to t, refuses a t before now, and leaves the clock alone once the
// engine is stopped.
func TestRunBeforeClock(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{1, 2, 2, 3} {
		e.At(at, func() { fired = append(fired, e.Now()) })
	}
	if now := e.RunBefore(2); now != 2 || len(fired) != 1 || e.Pending() != 3 {
		t.Fatalf("RunBefore(2): now %v, fired %v, pending %d; want 2, [1], 3", now, fired, e.Pending())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RunBefore before now did not panic")
			}
		}()
		e.RunBefore(1.5)
	}()
	e.At(2.5, func() { e.Stop() })
	if now := e.RunBefore(10); now != 2.5 || e.Pending() != 1 {
		t.Fatalf("stopped RunBefore: now %v, pending %d; want 2.5, 1", now, e.Pending())
	}
	if now := e.RunBefore(20); now != 2.5 {
		t.Fatalf("RunBefore on a stopped engine moved the clock to %v", now)
	}
}

func TestServerFIFOAndRate(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, "link", 100) // 100 units/s
	var ends []Time
	s.Submit(100, 0, JobFunc(func(st, en Time) {
		if st != 0 || en != 1 {
			t.Errorf("job1 interval [%v,%v], want [0,1]", st, en)
		}
		ends = append(ends, en)
	}))
	s.Submit(200, 0, JobFunc(func(st, en Time) {
		if st != 1 || en != 3 {
			t.Errorf("job2 interval [%v,%v], want [1,3]", st, en)
		}
		ends = append(ends, en)
	}))
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
	s.Submit(1000, Microseconds(10), JobFunc(func(_, en Time) { end = en }))
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
		s.Submit(1, 0, JobFunc(func(st, _ Time) { secondStart = st }))
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
	Transfer(e, []*Server{fast, slow}, 100, 0, JobFunc(func(st, en Time) {
		start, end, done = st, en, true
	}))
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

// TestTransferJoinStaggeredHops: when the hops of one transfer start at
// different instants, the reported interval runs from the earliest hop
// start to the latest hop end, whichever hops those are. Hops p and r are
// pre-loaded, so on the path [p, r, q] they serve the transfer over
// [1, 1.5], [0.5, 3] and [0, 2.5]: the earliest start belongs to neither
// the first hop on the path nor the first or last to finish, and the last
// hop on the path does not end last. The transfer reports [0, 3] exactly
// once, at t = 3.
func TestTransferJoinStaggeredHops(t *testing.T) {
	e := NewEngine()
	p := NewServer(e, "p", 300)
	q := NewServer(e, "q", 60)
	r := NewServer(e, "r", 60)
	p.Submit(300, 0, nil) // busy [0, 1]
	r.Submit(30, 0, nil)  // busy [0, 0.5]
	var start, end, firedAt Time
	calls := 0
	Transfer(e, []*Server{p, r, q}, 150, 0, JobFunc(func(st, en Time) {
		start, end, firedAt = st, en, e.Now()
		calls++
	}))
	e.Run()
	if calls != 1 {
		t.Fatalf("done fired %d times, want 1", calls)
	}
	if start != 0 || end != 3 {
		t.Fatalf("interval = [%v, %v], want [0, 3] (hop q's start, hop r's end)", start, end)
	}
	if firedAt != 3 {
		t.Fatalf("done fired at %v, want 3 (the last hop's completion)", firedAt)
	}
}

// TestTransferNilDoneServesEveryHop: a transfer nobody waits for still
// occupies, and is served by, every hop of its route.
func TestTransferNilDoneServesEveryHop(t *testing.T) {
	e := NewEngine()
	a := NewServer(e, "a", 100)
	b := NewServer(e, "b", 10)
	Transfer(e, []*Server{a, b}, 100, 0, nil)
	if end := e.Run(); end != 10 {
		t.Fatalf("engine drained at %v, want 10 (the slow hop's completion)", end)
	}
	for _, s := range []*Server{a, b} {
		if st := s.Stats(); st.Served != 1 || st.Units != 100 {
			t.Fatalf("hop %s served %d jobs / %g units, want 1 / 100", s.Name(), st.Served, st.Units)
		}
	}
}

// TestTransferMultiHopAllocFree: once the engine's join records and the
// servers' completion records are warm, a multi-hop transfer allocates
// nothing, and an Engine.Reset keeps the records for the next run.
func TestTransferMultiHopAllocFree(t *testing.T) {
	e := NewEngine()
	a := NewServer(e, "a", 100)
	b := NewServer(e, "b", 50)
	c := NewServer(e, "c", 200)
	path := []*Server{a, b, c}
	n := 0
	done := JobFunc(func(_, _ Time) { n++ })
	run := func() {
		for i := 0; i < 4; i++ {
			Transfer(e, path, 100, Microseconds(1), done)
		}
		e.Run()
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warm multi-hop transfers allocate %.1f objects per run, want 0", allocs)
	}
	reset := func() {
		e.Reset()
		for _, s := range []*Server{a, b, c} {
			s.Reset()
		}
		run()
	}
	if allocs := testing.AllocsPerRun(20, reset); allocs != 0 {
		t.Fatalf("multi-hop transfers after Engine.Reset allocate %.1f objects per run, want 0", allocs)
	}
	// AllocsPerRun calls its function once more than asked, as a warm-up.
	if want := 4 * (1 + 21 + 21); n != want {
		t.Fatalf("%d completions, want %d", n, want)
	}
}

func TestTransferContendsPerHop(t *testing.T) {
	e := NewEngine()
	shared := NewServer(e, "switch", 100)
	var e1, e2 Time
	Transfer(e, []*Server{shared}, 100, 0, JobFunc(func(_, en Time) { e1 = en }))
	Transfer(e, []*Server{shared}, 100, 0, JobFunc(func(_, en Time) { e2 = en }))
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
			s.Submit(size, 0, JobFunc(func(_, en Time) {
				if en != expected || en < prev {
					ok = false
				}
				prev = en
			}))
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
