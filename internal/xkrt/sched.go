package xkrt

import (
	"errors"
	"fmt"
	"sort"

	"xkblas/internal/cache"
	"xkblas/internal/check"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// taskQueue is a head-indexed deque: popping the front advances head
// instead of re-slicing away the backing array, so once the queue drains
// the array is reused and steady-state enqueueing allocates nothing.
type taskQueue struct {
	buf  []*Task
	head int
}

func (q *taskQueue) len() int       { return len(q.buf) - q.head }
func (q *taskQueue) at(i int) *Task { return q.buf[q.head+i] }
func (q *taskQueue) push(t *Task)   { q.buf = append(q.buf, t) }

func (q *taskQueue) popFront() *Task {
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return t
}

// removeAt takes the element at logical index i (0 = front) out of the
// queue, preserving order.
func (q *taskQueue) removeAt(i int) *Task {
	p := q.head + i
	t := q.buf[p]
	copy(q.buf[p:], q.buf[p+1:])
	q.buf[len(q.buf)-1] = nil
	q.buf = q.buf[:len(q.buf)-1]
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return t
}

// insertAt places t at logical index i (0 = front), shifting the tail.
func (q *taskQueue) insertAt(i int, t *Task) {
	p := q.head + i
	q.buf = append(q.buf, nil)
	copy(q.buf[p+1:], q.buf[p:])
	q.buf[p] = t
}

// clear drops every queued task and resets the deque, keeping capacity.
func (q *taskQueue) clear() {
	for i := q.head; i < len(q.buf); i++ {
		q.buf[i] = nil
	}
	q.buf = q.buf[:0]
	q.head = 0
}

// enqueueReady routes a dependency-free task to the scheduler.
func (rt *Runtime) enqueueReady(t *Task) {
	t.state = stateQueued
	switch t.kind {
	case kindFlush:
		// Coherency tasks bypass device queues: the D2H engine is modelled
		// inside the cache and contends on its own stream, which is how
		// XKaapi overlaps result write-back with remaining kernels.
		rt.runFlush(t)
		return
	case kindPrefetch:
		rt.runPrefetch(t)
		return
	}
	dev := rt.pol.Scheduler.Assign(t, schedState{rt})
	if rt.pol.Scheduler.Sorted() {
		t.dev = dev
		rt.insertByPriority(dev, t)
		rt.estLoad[dev] += t.estExec
	} else {
		rt.queues[dev].push(t)
	}
	t.readyAt = rt.Eng.Now()
	rt.readyCount++
	if rt.readyCount > rt.stats.ReadyQueueMax {
		rt.stats.ReadyQueueMax = rt.readyCount
	}
	rt.pumpAll()
}

// insertByPriority keeps the DMDAS per-device queue sorted by descending
// priority, then submission order.
func (rt *Runtime) insertByPriority(dev topology.DeviceID, t *Task) {
	q := &rt.queues[dev]
	i := sort.Search(q.len(), func(i int) bool {
		qi := q.at(i)
		if qi.priority != t.priority {
			return qi.priority < t.priority
		}
		return qi.id > t.id
	})
	q.insertAt(i, t)
}

// pumpAll tops up every device's pipeline window in id order (determinism).
func (rt *Runtime) pumpAll() {
	for d := range rt.Plat.GPUs {
		rt.pump(topology.DeviceID(d))
	}
}

// pump starts tasks on dev while its window has room. A failed run stops
// issuing new work: the in-flight events drain and Barrier returns the
// error.
func (rt *Runtime) pump(dev topology.DeviceID) {
	for rt.runErr == nil && rt.window[dev] < rt.Opt.Window {
		t := rt.popTask(dev)
		if t == nil {
			return
		}
		rt.startTask(dev, t)
	}
}

// popTask takes the next ready task for dev: local queue head first, then
// whatever migration the scheduler policy allows (locality-guided stealing
// for work stealing, nothing for DMDAS).
func (rt *Runtime) popTask(dev topology.DeviceID) *Task {
	if q := &rt.queues[dev]; q.len() > 0 {
		t := q.popFront()
		if rt.pol.Scheduler.Sorted() {
			rt.estLoad[dev] -= t.estExec
		}
		rt.readyCount--
		rt.counters.OwnerHits.Add(1)
		return t
	}
	victim, idx, ok := rt.pol.Scheduler.Steal(dev, schedState{rt})
	if !ok {
		return nil
	}
	t := rt.queues[victim].removeAt(idx)
	rt.readyCount--
	rt.stats.Steals++
	rt.counters.Steals.Add(1)
	return t
}

// startTask begins operand staging for a compute task on dev.
func (rt *Runtime) startTask(dev topology.DeviceID, t *Task) {
	t.dev = dev
	t.state = stateFetching
	stall := rt.Eng.Now() - t.readyAt
	rt.stats.StallTime += stall
	rt.stallHist.Observe(float64(stall))
	rt.window[dev]++
	t.pendingFetch = 1 // guard against synchronous completion
	for i := range t.acc {
		a := t.acc[i]
		switch {
		case a.Mode.reads():
			rt.fetchInput(t, a.Tile, dev)
		case a.Mode == Write:
			// Write-only output: allocate a raw replica; contents are
			// produced by the kernel.
			if err := rt.Cache.AllocRaw(a.Tile, dev); err != nil {
				if errors.Is(err, cache.ErrDeviceOOM) {
					rt.fail(fmt.Errorf("xkrt: output allocation for task %q: %w", t.name, err))
					return
				}
				panic(fmt.Sprintf("xkrt: %v", err))
			}
			rt.Cache.Pin(a.Tile, dev)
		}
	}
	t.pendingFetch--
	if t.pendingFetch == 0 {
		rt.launchKernel(t)
	}
}

// launchKernel enqueues the kernel on dev's serial kernel stream.
func (rt *Runtime) launchKernel(t *Task) {
	dev := t.dev
	t.state = stateRunning
	if rt.audit != nil {
		accs := make([]check.Access, len(t.acc))
		for i, a := range t.acc {
			accs[i] = check.Access{
				Tile:   a.Tile.CheckID(),
				Reads:  a.Mode.reads(),
				Writes: a.Mode.writes(),
			}
		}
		rt.audit.OnKernelLaunch(t.id, dev, accs)
	}
	g := rt.Plat.GPU(dev)
	eff := rt.Plat.Model.EffectiveFlops(t.kern.Routine, t.kern.Flops, t.kern.M, t.kern.N, t.kern.K)
	// The task itself is the completion callback (sim.JobDone): the hot
	// launch path allocates neither a closure here nor an event record in
	// the engine.
	g.Kernel.Submit(eff, rt.Plat.Model.LaunchOverhead, t)
}

func (rt *Runtime) completeKernel(t *Task, start, end sim.Time) {
	dev := t.dev
	// Functional mode: run the real arithmetic on the device buffers. The
	// buffer list is runtime-owned scratch; bodies run synchronously and
	// must not retain it.
	if t.kern.Body != nil && rt.Cache.Functional {
		bufs := rt.bufScratch[:0]
		for _, a := range t.acc {
			bufs = append(bufs, rt.Cache.DeviceBuf(a.Tile, dev))
		}
		t.kern.Body(bufs)
		clear(bufs)
		rt.bufScratch = bufs[:0]
	}
	for _, a := range t.acc {
		if a.Mode.writes() {
			rt.Cache.MarkDirty(a.Tile, dev)
		}
		rt.Cache.Unpin(a.Tile, dev)
		rt.Cache.Touch(a.Tile, dev)
		if !rt.pol.Evictor.RetainAfterRead() && a.Mode == Read {
			rt.Cache.DropClean(a.Tile, dev)
		}
	}
	if rt.Obs != nil {
		rt.Obs.OnKernel(dev, t.kern.Routine.String(), start, end)
	}
	if rt.audit != nil {
		rt.audit.OnKernelRetire(t.id, dev)
	}
	rt.window[dev]--
	rt.taskDone(t)
}

// runFlush executes a coherency task.
func (rt *Runtime) runFlush(t *Task) {
	tile := t.acc[0].Tile
	t.state = stateRunning
	rt.Cache.FlushToHost(tile, t)
}

// runPrefetch executes a distribution task (data-on-device staging).
func (rt *Runtime) runPrefetch(t *Task) {
	tile := t.acc[0].Tile
	dev := t.dev
	t.state = stateRunning
	if tile.ValidOn(dev) {
		rt.taskDone(t)
		return
	}
	rt.requestReplica(tile, dev, t)
}
