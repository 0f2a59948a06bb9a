package sim

import (
	"testing"
)

// runSampleWorkload drives a small self-scheduling simulation and returns
// the event-fire trace (time, fired-count pairs flattened).
func runSampleWorkload(e *Engine) []Time {
	var trace []Time
	var tick func(depth int, step Time)
	tick = func(depth int, step Time) {
		trace = append(trace, e.Now())
		if depth == 0 {
			return
		}
		e.After(step, func() { tick(depth-1, step*2) })
		e.After(step/2, func() { tick(depth-1, step) })
	}
	e.At(0, func() { tick(6, Microseconds(3)) })
	e.After(Microseconds(1), func() { trace = append(trace, e.Now()) })
	e.Run()
	return trace
}

func TestResetReproducesIdenticalTimings(t *testing.T) {
	e := NewEngine()
	first := runSampleWorkload(e)
	firstEnd, firstFired := e.Now(), e.Fired()

	e.Reset()
	if e.Now() != 0 || e.Fired() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: now=%v fired=%d pending=%d, want all zero",
			e.Now(), e.Fired(), e.Pending())
	}
	second := runSampleWorkload(e)
	if e.Now() != firstEnd || e.Fired() != firstFired {
		t.Fatalf("reset run: end=%v fired=%d, want %v/%d", e.Now(), e.Fired(), firstEnd, firstFired)
	}
	if len(first) != len(second) {
		t.Fatalf("trace lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, first[i], second[i])
		}
	}

	// A reset engine must also match a fresh engine bit-for-bit.
	fresh := runSampleWorkload(NewEngine())
	for i := range fresh {
		if fresh[i] != second[i] {
			t.Fatalf("reset engine diverges from fresh engine at %d: %v vs %v",
				i, second[i], fresh[i])
		}
	}
}

func TestResetClearsPendingEvents(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(Seconds(1), func() { fired = true })
	e.Reset()
	e.Run()
	if fired {
		t.Fatal("event scheduled before Reset fired after it")
	}
	if e.Now() != 0 {
		t.Fatalf("empty run should leave clock at 0, got %v", e.Now())
	}
}

func TestResetPanicsInsideHandler(t *testing.T) {
	e := NewEngine()
	e.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("Reset inside a handler should panic")
			}
		}()
		e.Reset()
	})
	e.Run()
}

func TestEventPoolRecyclesAcrossRuns(t *testing.T) {
	e := NewEngine()
	// Prime the free list.
	for i := 0; i < 64; i++ {
		e.After(Microseconds(float64(i)), func() {})
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.Reset()
		for i := 0; i < 64; i++ {
			e.After(Microseconds(float64(i)), func() {})
		}
		e.Run()
	})
	// Scheduling from the free list must not allocate events; the only
	// allocation budget is for the closure values themselves.
	if allocs > 70 {
		t.Fatalf("steady-state schedule+run allocates %.1f objects per cycle", allocs)
	}
}

// TestEngineFreeListCapped asserts the Reset retention bound: a run that
// leaves far more recycled events than maxFreeRetained behind must not pin
// them all in a pooled engine.
func TestEngineFreeListCapped(t *testing.T) {
	e := NewEngine()
	n := maxFreeRetained*2 + 100
	for i := 0; i < n; i++ {
		e.At(Time(i), func() {})
	}
	e.Reset() // all pending events recycled into the free list, then capped
	if len(e.free) > maxFreeRetained {
		t.Fatalf("free list holds %d events after Reset, cap is %d", len(e.free), maxFreeRetained)
	}
	if cap(e.free) > 2*maxFreeRetained {
		t.Fatalf("free list backing array cap %d survived Reset, want <= %d", cap(e.free), 2*maxFreeRetained)
	}
	// The engine still works and reproduces a fresh engine's behavior.
	fired := 0
	e.At(1, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("engine broken after capped Reset: fired %d", fired)
	}
}

func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Microseconds(float64(i%1024)), fn)
		if e.Pending() >= 4096 {
			b.StopTimer()
			e.Reset()
			b.StartTimer()
		}
	}
}

func BenchmarkEngineRun(b *testing.B) {
	const events = 4096
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e.Reset()
		b.StartTimer()
		for j := 0; j < events; j++ {
			// Interleaved times exercise real heap movement.
			e.At(Microseconds(float64((j*2654435761)%events)), fn)
		}
		e.Run()
	}
}

func BenchmarkEngineScheduleCascade(b *testing.B) {
	// Self-scheduling chain: the common pattern of Server completions.
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e.Reset()
		b.StartTimer()
		n := 0
		var step func()
		step = func() {
			if n < 2048 {
				n++
				e.After(Microseconds(1), step)
			}
		}
		e.At(0, step)
		e.Run()
	}
}
