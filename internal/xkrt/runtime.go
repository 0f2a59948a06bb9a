package xkrt

import (
	"errors"
	"fmt"
	"sync"

	"xkblas/internal/cache"
	"xkblas/internal/check"
	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/metrics"
	"xkblas/internal/policy"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// Options configure a runtime instance: the policy bundle that takes
// every data-movement and scheduling decision, plus the mechanism knobs
// the runtime keeps for itself.
type Options struct {
	// Window is the per-device software pipeline depth: how many tasks may
	// be fetching operands while one computes. XKaapi overlaps
	// communication and computation by running each operation type on its
	// own stream (§II-B).
	Window int
	// GridP×GridQ is the owner-computes mapping grid; 0 derives it from
	// the GPU count (8→4×2, matching the paper's DoD grid).
	GridP, GridQ int
	// StreamWindow, when positive, bounds the number of live tasks
	// (admitted into the runtime but not yet completed): a submission past
	// the bound waits, in submission order, until older tasks retire. A
	// generator calling Submit in a loop thereby streams an arbitrarily
	// large DAG through bounded task memory. 0 admits every submission
	// immediately (the historical whole-graph behavior).
	StreamWindow int
	// Policy is the complete declarative policy bundle and is required.
	// The paper's two heuristics live in its source selector:
	// policy.XKBlas has both on, and Fig. 3 switches them off one at a
	// time with policy.NoHeuristic and policy.NoHeuristicNoTopo. The
	// baseline libraries are each one bundle too.
	Policy *policy.Bundle
}

// Validate reports a descriptive error for inconsistent options. New
// panics on the same conditions.
func (o Options) Validate() error {
	if o.Window < 1 {
		return fmt.Errorf("xkrt: Options.Window must be >= 1, got %d", o.Window)
	}
	if o.GridP < 0 || o.GridQ < 0 {
		return fmt.Errorf("xkrt: negative owner grid %dx%d", o.GridP, o.GridQ)
	}
	if o.StreamWindow < 0 {
		return fmt.Errorf("xkrt: negative Options.StreamWindow %d", o.StreamWindow)
	}
	if o.Policy == nil {
		return fmt.Errorf("xkrt: Options.Policy is required")
	}
	return o.Policy.Validate()
}

// DefaultOptions returns the full-featured XKBLAS configuration.
func DefaultOptions() Options {
	return Options{Window: 4, Policy: &policy.XKBlas}
}

// Observer receives kernel-execution trace events; transfers are observed
// via cache.Observer.
type Observer interface {
	OnKernel(dev topology.DeviceID, name string, start, end sim.Time)
}

// Runtime is a live XKaapi-like runtime bound to a simulated platform.
type Runtime struct {
	Eng   *sim.Engine
	Plat  *device.Platform
	Cache *cache.Cache
	Opt   Options
	Obs   Observer

	nextID int

	// deps holds one dependency row per tile, indexed by the tile's arena
	// slot (cache.Tile.Slot). Rows grow with the tile arena and keep their
	// reader capacity across Reset.
	deps []depRow

	// Task arena: completed tasks recycle through taskFree (with their
	// inline access storage and successor-slice capacity), and depScratch
	// is wire's reusable dependency-dedup scratch, so steady-state
	// submission performs no heap allocation. tasksLiveMax is the arena's
	// high-water mark of live (admitted, not completed) tasks.
	taskFree     []*Task
	depScratch   []*Task
	tasksLiveMax int

	// bufScratch is completeKernel's reusable list of a functional kernel
	// body's device buffers.
	bufScratch []matrix.View

	// Streaming admission state (Options.StreamWindow): live counts
	// admitted-but-not-completed tasks, admitQ/admitHead queue submitted
	// tasks awaiting in-order admission (whole-graph mode), windowFull is
	// the preallocated blocking condition of lazy submission, and
	// windowStalls counts tasks that had to wait for window room.
	//
	// whole selects the whole-graph reference mode of the window: each
	// submission is wired at once and queued, and the window is applied
	// during execution instead of blocking the submitter. Both modes admit
	// every task at the same virtual instant, so a lazily streamed run is
	// bit-identical to its whole-graph counterpart; only the parity tests
	// set it.
	whole        bool
	live         int
	admitQ       []*Task
	admitHead    int
	windowFull   func() bool
	windowStalls int64

	queues  []taskQueue // per-device ready queues (FIFO or priority-sorted)
	window  []int       // per-device in-flight task count
	estLoad []sim.Time

	pending int // submitted but not completed tasks
	ownerRR int // round-robin fallback for unowned written tiles

	pol policy.Bundle

	// reg is the run's private metrics registry. It always exists — the
	// policy decision counters live on it and must count even when the
	// caller never collects metrics (xkbench -decisions works without
	// -metrics) — and it is single-writer: every Add happens on the engine
	// goroutine, so counts are deterministic.
	reg       *metrics.Registry
	counters  *policy.Counters
	stallHist *metrics.Histogram

	readyCount int // compute tasks currently in ready queues

	// audit is the attached coherence auditor (nil unless -check); runErr
	// records the first unrecoverable run failure (device OOM or
	// cancellation): the pump stops issuing work and Barrier returns early
	// instead of spinning.
	audit  *check.Auditor
	runErr error

	// chains lists the synthetic under-transfer marks registered by the
	// optimistic chain planner, in registration order; finishCancel cascades
	// ErrCanceled through the still-pending ones so piggybacked waiters are
	// notified instead of wedged.
	chains []chainMark

	// cancelMu guards the cross-goroutine cancellation request (Cancel may
	// run on a watchdog goroutine while the engine fires events).
	cancelMu    sync.Mutex
	cancelReq   bool
	cancelCause error

	stats RuntimeStats
}

// RuntimeStats counts scheduler activity.
type RuntimeStats struct {
	TasksRun      int64
	Steals        int64
	ChainedHops   int64 // optimistic forwards
	HostFallbacks int64 // transfers sourced from host
	PeerSources   int64 // transfers sourced from a GPU replica

	// ReadyQueueMax is the high-water mark of compute tasks sitting in
	// ready queues, and StallTime the total virtual time tasks spent there
	// between becoming ready and starting operand staging. Together they
	// say whether a configuration is starved for work or for devices.
	ReadyQueueMax int
	StallTime     sim.Time
}

// New builds a runtime over an existing engine/platform with a fresh cache.
// functional selects real-data mode. Invalid options panic; call
// Options.Validate first to get the error instead.
func New(eng *sim.Engine, plat *device.Platform, functional bool, opt Options) *Runtime {
	n := len(plat.GPUs)
	rt := &Runtime{
		Eng:     eng,
		Plat:    plat,
		Cache:   cache.New(plat, functional),
		queues:  make([]taskQueue, n),
		window:  make([]int, n),
		estLoad: make([]sim.Time, n),
	}
	rt.SetOptions(opt)
	rt.reg = metrics.NewRegistry()
	rt.counters = policy.NewCounters(rt.reg)
	rt.stallHist = rt.reg.Histogram("rt.stall_seconds", StallBuckets)
	rt.Cache.Counters = rt.counters
	rt.windowFull = func() bool { return rt.live >= rt.Opt.StreamWindow }
	return rt
}

// SetOptions installs opt: the policy bundle (source selector, scheduler,
// evictor), the pipeline and stream windows and the owner grid, derived
// from the GPU count when unset. New applies its options through it, and a
// recycled runtime takes another configuration through it after Reset, so
// a retargeted runtime runs exactly like one built with opt. Call it
// between runs only. Invalid options panic, as in New.
func (rt *Runtime) SetOptions(opt Options) {
	if err := opt.Validate(); err != nil {
		panic(err)
	}
	if opt.GridP == 0 || opt.GridQ == 0 {
		opt.GridP, opt.GridQ = defaultGrid(len(rt.Plat.GPUs))
	}
	rt.Opt = opt
	rt.pol = *opt.Policy
	rt.Cache.Evictor = rt.pol.Evictor
}

// Reset returns the runtime (and its cache) to the freshly built state so
// an engine/platform/runtime triple can be reused across repetitions: task
// and tile arenas keep their capacity, every table and counter is cleared,
// run-scoped attachments (Obs, auditor) are dropped, and the metrics
// registry is rebuilt so a reused runtime publishes exactly what a fresh
// one would. The caller must reset the engine and platform first
// (Engine.Reset, then Platform.Reset); a reset triple reproduces the event
// order — and therefore every timing, decision and metric — of a fresh
// build bit for bit.
func (rt *Runtime) Reset() {
	rt.Cache.Reset()
	rt.Cache.Evictor = rt.pol.Evictor
	rt.nextID = 0
	for i := range rt.deps {
		rt.deps[i].clear()
	}
	for d := range rt.queues {
		rt.queues[d].clear()
		rt.window[d] = 0
		rt.estLoad[d] = 0
	}
	rt.pending = 0
	rt.ownerRR = 0
	rt.reg = metrics.NewRegistry()
	rt.counters = policy.NewCounters(rt.reg)
	rt.stallHist = rt.reg.Histogram("rt.stall_seconds", StallBuckets)
	rt.Cache.Counters = rt.counters
	rt.readyCount = 0
	rt.audit = nil
	rt.runErr = nil
	for i := range rt.chains {
		rt.chains[i] = chainMark{}
	}
	rt.chains = rt.chains[:0]
	rt.cancelMu.Lock()
	rt.cancelReq = false
	rt.cancelCause = nil
	rt.cancelMu.Unlock()
	rt.stats = RuntimeStats{}
	rt.Obs = nil
	if len(rt.taskFree) > sim.MaxFreeRetained {
		// The task arena is most of what an idle context holds. Keep the
		// engine's free-list bound, reallocating as Engine.Reset does so
		// the surplus records and the peak-sized array are released.
		rt.taskFree = append(make([]*Task, 0, sim.MaxFreeRetained), rt.taskFree[:sim.MaxFreeRetained]...)
	}
	rt.tasksLiveMax = 0
	rt.live = 0
	for i := rt.admitHead; i < len(rt.admitQ); i++ {
		rt.admitQ[i] = nil
	}
	rt.admitQ = rt.admitQ[:0]
	rt.admitHead = 0
	rt.windowStalls = 0
}

// StallBuckets are the fixed histogram bounds (seconds of virtual time) for
// task ready-queue stalls. Fixed bounds keep the exported snapshot shape
// identical across runs and sweep points.
var StallBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// defaultGrid factors n into the most square P×Q grid with P ≥ Q; 8 GPUs
// give the paper's (4,2).
func defaultGrid(n int) (p, q int) {
	p, q = n, 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			p, q = n/d, d
		}
	}
	return p, q
}

// AttachAuditor wires a coherence auditor into the runtime and its cache;
// every subsequent state transition is verified. Attach before submitting
// work.
func (rt *Runtime) AttachAuditor(a *check.Auditor) {
	rt.audit = a
	rt.Cache.Audit = a
}

// Err returns the first run failure (nil while healthy). After a non-nil
// Err, Barrier no longer guarantees the task graph drained.
func (rt *Runtime) Err() error { return rt.runErr }

// fail records the first run failure. Subsequent failures (cascades from
// cancelled chains) are dropped: the first cause is the report.
func (rt *Runtime) fail(err error) {
	if rt.runErr == nil {
		rt.runErr = err
	}
}

// Stats returns a copy of the runtime counters.
func (rt *Runtime) Stats() RuntimeStats { return rt.stats }

// Decisions returns a snapshot of the policy-decision counters accumulated
// so far (including the cache's eviction decisions).
func (rt *Runtime) Decisions() policy.Decisions { return rt.counters.Snapshot() }

// CountDispatch records one batched host/device dispatch decision against
// the run's policy counters (the "dispatch.*" metric series): host = true
// for an instance executed by the host BLAS server, false for one sent
// down the tiled device path.
func (rt *Runtime) CountDispatch(host bool) { rt.counters.CountDispatch(host) }

// Registry exposes the run's private metrics registry.
func (rt *Runtime) Registry() *metrics.Registry { return rt.reg }

// CollectMetrics publishes the platform's resource utilization, the cache
// traffic counters and the runtime's scheduler statistics into the run's
// registry and returns a deterministic snapshot. Publication uses
// Store/Set, so collecting twice is idempotent.
func (rt *Runtime) CollectMetrics() metrics.Snapshot {
	rt.Plat.PublishMetrics(rt.reg)
	rt.Cache.PublishMetrics(rt.reg)
	rt.reg.Counter("rt.tasks_run").Store(rt.stats.TasksRun)
	rt.reg.Counter("rt.steals").Store(rt.stats.Steals)
	rt.reg.Counter("rt.chained_hops").Store(rt.stats.ChainedHops)
	rt.reg.Counter("rt.host_fallbacks").Store(rt.stats.HostFallbacks)
	rt.reg.Counter("rt.peer_sources").Store(rt.stats.PeerSources)
	rt.reg.Gauge("rt.ready_queue_max").Set(float64(rt.stats.ReadyQueueMax))
	rt.reg.Gauge("rt.stall_time_seconds").Set(float64(rt.stats.StallTime))
	rt.reg.Counter("rt.window_stalls").Store(rt.windowStalls)
	rt.reg.Gauge("rt.tasks_live_max").Set(float64(rt.tasksLiveMax))
	return rt.reg.Snapshot()
}

// TasksLiveMax reports the high-water mark of live (admitted, not yet
// completed) tasks — the task arena's footprint. With a stream window it is
// bounded by the window plus the synchronous admission overshoot; without
// one it grows with the whole graph.
func (rt *Runtime) TasksLiveMax() int { return rt.tasksLiveMax }

// WindowStalls reports how many tasks had to wait for stream-window room
// before admission.
func (rt *Runtime) WindowStalls() int64 { return rt.windowStalls }

// Policy returns the active policy bundle.
func (rt *Runtime) Policy() policy.Bundle { return rt.pol }

// schedState adapts the runtime to the policy layer's scheduler-state view;
// all queue surgery stays in the runtime.
type schedState struct{ rt *Runtime }

// NumDevices implements policy.SchedState.
func (s schedState) NumDevices() int { return len(s.rt.Plat.GPUs) }

// QueueLen implements policy.SchedState.
func (s schedState) QueueLen(dev topology.DeviceID) int { return s.rt.queues[dev].len() }

// PeekQueue implements policy.SchedState.
func (s schedState) PeekQueue(dev topology.DeviceID, i int) policy.SchedTask {
	return s.rt.queues[dev].at(i)
}

// EstLoad implements policy.SchedState.
func (s schedState) EstLoad(dev topology.DeviceID) sim.Time { return s.rt.estLoad[dev] }

// KernelAvailableAt implements policy.SchedState.
func (s schedState) KernelAvailableAt(dev topology.DeviceID) sim.Time {
	return s.rt.Plat.GPU(dev).Kernel.AvailableAt()
}

// TransferEstimate implements policy.SchedState.
func (s schedState) TransferEstimate(src, dst topology.DeviceID, bytes int64) sim.Time {
	return s.rt.Plat.TransferEstimate(src, dst, bytes)
}

// EstimateExec implements policy.SchedState, memoizing the estimate on the
// task for the runtime's load accounting.
func (s schedState) EstimateExec(t policy.SchedTask) sim.Time {
	tt := t.(*Task)
	m := s.rt.Plat.Model
	tt.estExec = m.Time(tt.kern.Routine, tt.kern.Flops, tt.kern.M, tt.kern.N, tt.kern.K)
	return tt.estExec
}

// Grid implements policy.SchedState.
func (s schedState) Grid() (p, q int) { return s.rt.Opt.GridP, s.rt.Opt.GridQ }

// NextRoundRobin implements policy.SchedState.
func (s schedState) NextRoundRobin() topology.DeviceID {
	d := topology.DeviceID(s.rt.ownerRR % len(s.rt.Plat.GPUs))
	s.rt.ownerRR++
	return d
}

// Pending reports how many submitted tasks have not completed.
func (rt *Runtime) Pending() int { return rt.pending }

// PendingExternal adjusts the pending counter for operations tracked
// outside the task graph (e.g. host-memory registration), so Barrier also
// waits for them. Pass +1 when starting, -1 on completion.
func (rt *Runtime) PendingExternal(delta int) {
	rt.pending += delta
	if rt.pending < 0 {
		panic("xkrt: negative pending count")
	}
}

// newTask takes a recycled task record from the arena (or allocates one)
// and stamps the next submission id. Up to four accesses — every level-3
// BLAS tile kernel — are stored inline, so steady-state submission touches
// the heap nowhere.
func (rt *Runtime) newTask(kind taskKind, accesses []Access) *Task {
	var t *Task
	if n := len(rt.taskFree); n > 0 {
		t = rt.taskFree[n-1]
		rt.taskFree[n-1] = nil
		rt.taskFree = rt.taskFree[:n-1]
	} else {
		t = &Task{}
	}
	t.rt = rt
	t.id = rt.nextID
	rt.nextID++
	t.kind = kind
	t.dev = -1
	t.state = stateSubmitted
	if len(accesses) <= len(t.accStore) {
		n := copy(t.accStore[:], accesses)
		t.acc = t.accStore[:n]
	} else {
		t.acc = append([]Access(nil), accesses...)
	}
	return t
}

// recycleTask clears a completed task and returns it to the arena. By the
// time a task completes, no predecessor holds it (they completed first and
// were themselves recycled) and its successors only carried a counter, so
// the record is unreachable outside the dependency tables taskDone already
// pruned.
func (rt *Runtime) recycleTask(t *Task) {
	for i := range t.acc {
		t.acc[i] = Access{}
	}
	t.acc = nil
	t.name = ""
	t.kern = KernelSpec{}
	t.priority = 0
	t.preds = 0
	for i := range t.succs {
		t.succs[i] = nil
	}
	t.succs = t.succs[:0]
	t.dev = -1
	t.wired = false
	t.admitted = false
	t.stallCounted = false
	t.pendingFetch = 0
	t.estExec = 0
	t.readyAt = 0
	rt.taskFree = append(rt.taskFree, t)
}

// Submit adds a compute task with the given kernel, priority and accesses.
// Dependencies are inferred from access modes in submission order, exactly
// like a sequential-consistency superscalar: reads depend on the last
// writer; writes depend on the last writer and every reader since. With a
// stream window configured (Options.StreamWindow), Submit may drive the
// simulation until the window has room. The returned *Task is recycled at
// completion and must not be retained past Barrier.
func (rt *Runtime) Submit(name string, kern KernelSpec, priority int, accesses ...Access) *Task {
	t := rt.newTask(kindCompute, accesses)
	t.name = name
	t.kern = kern
	t.priority = priority
	rt.stage(t)
	return t
}

// SubmitFlush adds a coherency task: once the last writer of the tile
// completes, its dirty replica is written back to host memory. This is the
// lazy, composable D2H of §IV-F (xkblas_memory_coherent_async).
func (rt *Runtime) SubmitFlush(tile *cache.Tile) *Task {
	t := rt.newTask(kindFlush, []Access{R(tile)})
	rt.stage(t)
	return t
}

// SubmitPrefetch adds a distribution task pushing the tile to dev and
// marking dev as the tile's owner-computes home
// (xkblas_distribute_2Dblock_cyclic_async builds on this). The owner claim
// happens at admission, not submission, so streamed and whole-graph runs
// observe it at the same virtual instant.
func (rt *Runtime) SubmitPrefetch(tile *cache.Tile, dev topology.DeviceID) *Task {
	t := rt.newTask(kindPrefetch, []Access{R(tile)})
	t.dev = dev
	rt.stage(t)
	return t
}

// stage routes a freshly submitted task through the admission window.
// Without a stream window the task is admitted immediately (the historical
// behavior). Whole-graph mode wires dependencies now and queues the task
// for in-order admission at event boundaries; lazy streaming blocks the
// submitter — driving the engine — until the window has room, then admits.
// Both streaming modes admit every task at the same virtual instant and at
// the same event boundary, which is what makes a streamed run bit-identical
// to its whole-graph reference.
func (rt *Runtime) stage(t *Task) {
	win := rt.Opt.StreamWindow
	if win <= 0 {
		rt.admit(t)
		return
	}
	if rt.whole {
		rt.wire(t)
		rt.admitQ = append(rt.admitQ, t)
		rt.tryAdmit()
		return
	}
	if rt.live >= win {
		t.stallCounted = true
		rt.windowStalls++
		rt.Eng.RunWhile(rt.windowFull)
	}
	rt.admit(t)
}

// admit marks a task live, wires its dependencies if submission did not,
// and enqueues it when already runnable. Admission order is submission
// order in every mode.
func (rt *Runtime) admit(t *Task) {
	t.admitted = true
	rt.live++
	if rt.live > rt.tasksLiveMax {
		rt.tasksLiveMax = rt.live
	}
	if t.kind == kindPrefetch {
		t.acc[0].Tile.Owner = t.dev
	}
	if !t.wired {
		rt.wire(t)
	}
	if t.preds == 0 {
		rt.enqueueReady(t)
	}
}

// tryAdmit admits queued whole-graph tasks in submission order while the
// stream window has room. It runs only at the boundaries where lazy
// submission could unblock — between engine events (Barrier's RunWhile
// condition) and between submissions (stage) — never from inside a
// completion cascade, so both modes interleave admissions with event
// processing identically. When the window is full, the task at the queue
// head is charged one window stall: the same instant its lazy-mode
// counterpart would block in Submit.
func (rt *Runtime) tryAdmit() {
	if rt.admitHead >= len(rt.admitQ) {
		return
	}
	win := rt.Opt.StreamWindow
	for rt.admitHead < len(rt.admitQ) && rt.live < win {
		t := rt.admitQ[rt.admitHead]
		rt.admitQ[rt.admitHead] = nil
		rt.admitHead++
		if rt.admitHead == len(rt.admitQ) {
			rt.admitQ = rt.admitQ[:0]
			rt.admitHead = 0
		}
		rt.admit(t)
	}
	if rt.admitHead < len(rt.admitQ) {
		if h := rt.admitQ[rt.admitHead]; !h.stallCounted {
			h.stallCounted = true
			rt.windowStalls++
		}
	}
}

// depRow is one tile's dependency state: the last task that wrote it and
// every task that has read it since.
type depRow struct {
	lastWriter *Task
	readers    []*Task
}

// clear empties the row, keeping the readers capacity.
func (r *depRow) clear() {
	r.lastWriter = nil
	clear(r.readers)
	r.readers = r.readers[:0]
}

// row returns tile's dependency row, growing the table to the tile's slot.
// The pointer is valid until the next call.
func (rt *Runtime) row(tile *cache.Tile) *depRow {
	for tile.Slot >= len(rt.deps) {
		rt.deps = append(rt.deps, depRow{})
	}
	return &rt.deps[tile.Slot]
}

// wire links the task's dependencies into the tables. The dedup scratch is
// reused across calls: a task's dependency fan-in is tiny (bounded by its
// access count plus readers), so a linear scan beats a map and allocates
// nothing.
func (rt *Runtime) wire(t *Task) {
	t.wired = true
	rt.pending++
	deps := rt.depScratch[:0]
	addDep := func(p *Task) {
		if p == nil || p.state == stateDone || p == t {
			return
		}
		for _, d := range deps {
			if d == p {
				return
			}
		}
		deps = append(deps, p)
		p.succs = append(p.succs, t)
		t.preds++
	}
	for _, a := range t.acc {
		row := rt.row(a.Tile)
		if a.Mode.reads() {
			addDep(row.lastWriter)
		}
		if a.Mode.writes() {
			addDep(row.lastWriter)
			for _, r := range row.readers {
				addDep(r)
			}
		}
	}
	// Update the tables after scanning all accesses.
	for _, a := range t.acc {
		row := rt.row(a.Tile)
		if a.Mode.writes() {
			row.clear()
			row.lastWriter = t
		} else {
			row.readers = append(row.readers, t)
		}
	}
	for i := range deps {
		deps[i] = nil
	}
	rt.depScratch = deps[:0]
}

// pruneTables removes a completed task from the dependency tables. Every
// later submission would have skipped the task anyway (done predecessors
// are never linked), so pruning is observably neutral — it exists so the
// record can be recycled and the tables stay bounded by the live set
// instead of growing with the whole run.
func (rt *Runtime) pruneTables(t *Task) {
	for _, a := range t.acc {
		row := &rt.deps[a.Tile.Slot]
		if a.Mode.writes() {
			if row.lastWriter == t {
				row.lastWriter = nil
			}
		} else if rs := row.readers; len(rs) > 0 {
			for i, r := range rs {
				if r == t {
					copy(rs[i:], rs[i+1:])
					rs[len(rs)-1] = nil
					row.readers = rs[:len(rs)-1]
					break
				}
			}
		}
	}
}

// Barrier drives the simulation until every submitted task has completed
// and returns the virtual time. On a failed or cancelled run (Err() !=
// nil) it returns as soon as the engine drains or aborts at the current
// virtual time — tasks stranded by the failure are expected, not a
// deadlock — and the caller must check Err.
func (rt *Runtime) Barrier() sim.Time {
	// The condition runs between events — the admission boundary: queued
	// whole-graph tasks are admitted here, exactly where a lazily streamed
	// submission would unblock.
	rt.Eng.RunWhile(func() bool {
		rt.tryAdmit()
		return rt.pending > 0
	})
	if rt.pending > 0 {
		if req, cause := rt.cancelRequested(); req || rt.Eng.Stopped() {
			// The engine aborted mid-graph (Cancel, or a raw Engine.Stop):
			// finish the cancellation on this goroutine — fail first-wins
			// and cascade through the pending synthetic under-transfer
			// records. A cancel that lands after the graph drained is moot.
			rt.finishCancel(cause)
		}
		if rt.runErr != nil {
			if errors.Is(rt.runErr, ErrCanceled) {
				// A cancelled drain is a legitimate end state: verify the
				// memory accounting and count the run as audited without
				// the quiescent checks that only hold after a clean drain.
				rt.Cache.AuditCancelledDrain()
			}
			return rt.Eng.Now()
		}
		panic(fmt.Sprintf("xkrt: deadlock, %d tasks pending with no events", rt.pending))
	}
	if rt.runErr == nil && rt.audit != nil {
		// Quiescent-state invariants only hold after a clean drain.
		rt.Cache.AuditDrain()
	}
	return rt.Eng.Now()
}

// taskDone finalises a task, wakes successors and recycles the record.
func (rt *Runtime) taskDone(t *Task) {
	t.state = stateDone
	rt.pending--
	rt.live--
	rt.stats.TasksRun++
	for _, s := range t.succs {
		s.preds--
		if s.preds < 0 {
			panic("xkrt: negative predecessor count")
		}
		if s.preds == 0 && s.admitted {
			rt.enqueueReady(s)
		}
	}
	rt.pruneTables(t)
	rt.pumpAll()
	rt.recycleTask(t)
}
