// Package sim provides a deterministic discrete-event simulation engine used
// to model a multi-GPU platform in virtual time.
//
// The engine owns a virtual clock and a priority queue of events. Events
// scheduled for the same instant fire in submission order, which makes every
// simulation reproducible bit-for-bit: the platform model, the runtime
// schedulers and the benchmark harness all rely on this property.
//
// The engine is intentionally single-threaded: handlers run one at a time on
// the caller's goroutine during Run. Concurrency of the modelled hardware
// (copy engines, links, kernel streams) is expressed with Server resources,
// not with goroutines. Distinct Engine instances are independent, so whole
// simulations can run concurrently on separate goroutines (one engine each);
// the bench harness exploits this to fan independent runs across host cores.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation.
type Time float64

// Infinity is a time later than any event the engine will ever fire.
const Infinity = Time(math.MaxFloat64)

// Duration helpers.

// Seconds converts a float64 number of seconds to a Time delta.
func Seconds(s float64) Time { return Time(s) }

// Microseconds converts microseconds to a Time delta.
func Microseconds(us float64) Time { return Time(us * 1e-6) }

// Handler is an event callback. Scheduling a pooled object that implements
// Handler (AtHandler) stores a two-word interface value instead of forcing
// a fresh closure per event, which is what keeps steady-state resource
// completions heap-allocation free.
type Handler interface {
	Fire()
}

// funcHandler lets At and After schedule a closure as a Handler. A func
// value is pointer-shaped, so the conversion allocates nothing.
type funcHandler func()

// Fire implements Handler.
func (f funcHandler) Fire() { f() }

// event is a single scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-break: submission order
	h   Handler
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// engines with NewEngine.
//
// The pending-event queue is an index-free four-ary min-heap ordered by
// (time, sequence). Compared with container/heap's binary layout it needs
// interface boxing nowhere, does ~half the sift-down levels, and keeps
// siblings on one cache line of pointers. Fired events are recycled through
// a free list, so steady-state scheduling performs no heap allocation.
type Engine struct {
	now      Time
	seq      uint64
	events   []*event   // 4-ary min-heap
	free     []*event   // recycled events, reused by AtHandler
	joinFree []*hopJoin // recycled multi-hop transfer joins (Transfer)
	fired    uint64
	running  bool

	// stop is the abort flag. It is the engine's single cross-goroutine
	// entry point: a watchdog may set it while Run executes on another
	// goroutine, so it is atomic where every other field is confined to the
	// simulation goroutine.
	stop atomic.Bool
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting to fire.
func (e *Engine) Pending() int { return len(e.events) }

// Stop requests an abort: the run loop finishes the handler in progress and
// returns with the clock at the current virtual time, leaving the pending
// events queued. Safe to call from any goroutine (a deadline watchdog) or
// from an event handler; every other Engine method remains confined to the
// simulation goroutine. Run/RunUntil/RunWhile on a stopped engine return
// immediately; Reset re-arms the engine.
func (e *Engine) Stop() { e.stop.Store(true) }

// Stopped reports whether Stop has been called since the last Reset.
func (e *Engine) Stopped() bool { return e.stop.Load() }

// MaxFreeRetained caps the records a free list keeps across a Reset: the
// engine's event free list here, and the runtime's task arena above it.
// One bigN run leaves hundreds of thousands of recycled events behind, and
// a context that baseline keeps idle for the next run would otherwise hold
// that peak memory forever. 16384 pooled events are far above the
// steady-state in-flight count of any sweep point, so the cap never costs
// steady-state allocations.
const MaxFreeRetained = 1 << 14

// Reset returns the engine to its initial state — clock at zero, no pending
// events, counters cleared — while keeping the heap capacity and a bounded
// event free list, so a pooled engine can be reused across repetitions
// without reallocating. A reset engine reproduces the exact event order
// (and thus timings) of a fresh one. Calling Reset from an event handler
// panics.
func (e *Engine) Reset() {
	if e.running {
		panic("sim: Reset called from an event handler")
	}
	for i, ev := range e.events {
		ev.h = nil
		e.free = append(e.free, ev)
		e.events[i] = nil
	}
	e.events = e.events[:0]
	if len(e.free) > MaxFreeRetained {
		// Reallocate rather than reslice: a reslice would pin the
		// peak-sized backing array the cap exists to release.
		e.free = append(make([]*event, 0, MaxFreeRetained), e.free[:MaxFreeRetained]...)
	}
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.stop.Store(false)
}

// acquire takes an event from the free list, or allocates one.
func (e *Engine) acquire(at Time, seq uint64, h Handler) *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.h = at, seq, h
		return ev
	}
	return &event{at: at, seq: seq, h: h}
}

// newJoin pops a recycled multi-hop join record, or allocates one.
func (e *Engine) newJoin() *hopJoin {
	if n := len(e.joinFree); n > 0 {
		j := e.joinFree[n-1]
		e.joinFree[n-1] = nil
		e.joinFree = e.joinFree[:n-1]
		return j
	}
	return &hopJoin{eng: e}
}

// recycle clears a fired event and returns it to the free list.
func (e *Engine) recycle(ev *event) {
	ev.h = nil
	e.free = append(e.free, ev)
}

// eventLess orders events by time, then submission sequence.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts an event into the four-ary heap (sift-up).
func (e *Engine) push(ev *event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.events = h
}

// pop removes and returns the earliest event (sift-down).
func (e *Engine) pop() *event {
	h := e.events
	root := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	e.events = h
	i := 0
	for {
		min := i
		c := 4*i + 1
		end := c + 4
		if end > n {
			end = n
		}
		for ; c < end; c++ {
			if eventLess(h[c], h[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return root
}

// At schedules fn to run at absolute virtual time t, as AtHandler does.
func (e *Engine) At(t Time, fn func()) { e.AtHandler(t, funcHandler(fn)) }

// AtHandler schedules h.Fire to run at absolute virtual time t. h is
// typically a pooled object, so steady-state scheduling touches the heap
// nowhere. Scheduling in the past panics: it would silently reorder
// causality. So does a NaN time, which compares false against every other
// time and would break the heap's (time, sequence) order.
func (e *Engine) AtHandler(t Time, h Handler) {
	if !(t >= e.now) {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(e.acquire(t, e.seq, h))
}

// After schedules fn to run d seconds of virtual time from now. Negative
// and NaN delays panic.
func (e *Engine) After(d Time, fn func()) {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Run fires events in order until none remain, then returns the final clock
// value. Handlers may schedule more events.
func (e *Engine) Run() Time {
	return e.RunUntil(Infinity)
}

// RunUntil fires events in order until the queue is empty, the next event
// is later than deadline, or Stop is called. On a normal return with a
// finite deadline the clock lands exactly on the deadline — whether the
// queue drained or the next event lies beyond it — so callers observe one
// uniform clock contract (the drained path used to stop short). On a stop
// the clock stays at the last fired event's time.
func (e *Engine) RunUntil(deadline Time) Time {
	if e.running {
		panic("sim: Run called re-entrantly from an event handler")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.events) > 0 && !e.stop.Load() {
		next := e.events[0]
		if next.at > deadline {
			break
		}
		e.pop()
		e.now = next.at
		e.fired++
		next.h.Fire()
		e.recycle(next)
	}
	if deadline != Infinity && e.now < deadline && !e.stop.Load() {
		// The run covered the whole interval, so the clock advances to the
		// deadline.
		e.now = deadline
	}
	return e.now
}

// RunBefore fires, in order, every pending event strictly earlier than t,
// then moves the clock to t. It streams a time-sorted external input into
// the simulation: for each item in order, call RunBefore(item's time) and
// handle the item directly; call Run after the last. That fires the same
// events in the same order as scheduling every item with At up front,
// before any other event. Up front, each item would carry a lower sequence
// number than every other event and so fire first at its instant; the
// strict bound leaves exactly the events at that instant pending. Item
// times must never decrease: a t before now, or NaN, panics as At does.
// After Stop the clock stays at the last fired event's time; the caller
// checks Stopped and feeds no more items.
func (e *Engine) RunBefore(t Time) Time {
	if !(t >= e.now) {
		panic(fmt.Sprintf("sim: RunBefore(%v) before now %v", t, e.now))
	}
	// An event time is below t exactly when it is at most the next float64
	// below t.
	e.RunUntil(Time(math.Nextafter(float64(t), math.Inf(-1))))
	if !e.stop.Load() {
		e.now = t
	}
	return e.now
}

// RunWhile fires events while cond() remains true, events remain and Stop
// has not been called. It is the engine-level building block for "run until
// this operation completes" style synchronisation used by the runtimes
// built on top of the simulator.
func (e *Engine) RunWhile(cond func() bool) Time {
	if e.running {
		panic("sim: Run called re-entrantly from an event handler")
	}
	e.running = true
	defer func() { e.running = false }()
	for cond() && len(e.events) > 0 && !e.stop.Load() {
		next := e.pop()
		e.now = next.at
		e.fired++
		next.h.Fire()
		e.recycle(next)
	}
	return e.now
}
