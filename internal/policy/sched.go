package policy

import (
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// SchedTask is the scheduler's read-only view of a ready task.
type SchedTask interface {
	// NumAccesses reports the task's tile-access count.
	NumAccesses() int
	// AccessTile returns the placement view of access i.
	AccessTile(i int) TileView
	// AccessReads reports whether access i needs valid data before launch.
	AccessReads(i int) bool
	// OutputTile returns the first written tile (the owner-computes key);
	// ok=false for read-only tasks.
	OutputTile() (TileView, bool)
}

// SchedState is the mutable runtime state a scheduler reads when placing or
// stealing tasks. All mutation (queue surgery, load accounting, cursors)
// stays behind this interface so scheduler values remain stateless and
// shareable across concurrent simulations.
type SchedState interface {
	// NumDevices reports the GPU count.
	NumDevices() int
	// QueueLen reports the ready-queue length of dev.
	QueueLen(dev topology.DeviceID) int
	// PeekQueue returns the i-th queued task of dev without removing it.
	PeekQueue(dev topology.DeviceID, i int) SchedTask
	// EstLoad reports the summed execution estimate of dev's queued tasks
	// (maintained for sorted schedulers only).
	EstLoad(dev topology.DeviceID) sim.Time
	// KernelAvailableAt reports when dev's kernel stream frees up.
	KernelAvailableAt(dev topology.DeviceID) sim.Time
	// TransferEstimate reports the unloaded cost of moving bytes src→dst.
	TransferEstimate(src, dst topology.DeviceID, bytes int64) sim.Time
	// EstimateExec computes (and memoizes on the task) the modelled kernel
	// time of t.
	EstimateExec(t SchedTask) sim.Time
	// Grid reports the owner-computes (P, Q) mapping grid.
	Grid() (p, q int)
	// NextRoundRobin returns the next device of the fallback round-robin
	// cursor (read-only tasks without an owner tile).
	NextRoundRobin() topology.DeviceID
}

// Scheduler decides where ready tasks run. Assign picks the queue a task
// joins; Steal lets an idle device migrate work. Sorted distinguishes
// priority-ordered, load-tracked queues (DMDAS) from FIFO queues.
type Scheduler interface {
	Name() string

	// Sorted reports whether ready queues are kept priority-sorted with
	// per-device load estimates (the DMDAS discipline) rather than FIFO.
	Sorted() bool

	// Assign picks the device whose ready queue t joins.
	Assign(t SchedTask, s SchedState) topology.DeviceID

	// Steal selects a (victim, queue index) for an idle thief; ok=false
	// keeps the thief idle until new work arrives.
	Steal(thief topology.DeviceID, s SchedState) (victim topology.DeviceID, idx int, ok bool)
}

// WorkStealing is XKaapi's scheduler (§III-A, [11]): owner-computes mapping
// of each task to its output tile's home device, refined by locality-aware
// stealing from the most loaded victim. NoSteal freezes the static mapping
// (cuBLAS-XT's round-robin tile assignment, SLATE's fixed distribution).
type WorkStealing struct {
	NoSteal bool
}

// Name implements Scheduler.
func (w WorkStealing) Name() string {
	if w.NoSteal {
		return "static-owner"
	}
	return "work-stealing"
}

// Sorted implements Scheduler: ready queues are FIFO.
func (WorkStealing) Sorted() bool { return false }

// Assign implements the owner-computes rule: a task runs where its output
// tile lives. Tiles without an owner yet are assigned with the 2D grid map
// (i mod P, j mod Q), the mapping used for the paper's DoD distribution.
func (WorkStealing) Assign(t SchedTask, s SchedState) topology.DeviceID {
	out, hasOut := t.OutputTile()
	if !hasOut {
		// Read-only task (rare): round-robin.
		return s.NextRoundRobin()
	}
	if o := out.HomeOwner(); o >= 0 {
		return o
	}
	p, q := s.Grid()
	i, j := out.Coords()
	owner := topology.DeviceID((i%p)*q+j%q) % topology.DeviceID(s.NumDevices())
	out.SetHomeOwner(owner)
	return owner
}

// stealScanDepth bounds how many victim-queue tasks the locality heuristic
// inspects per steal.
const stealScanDepth = 8

// Steal implements the locality-guided steal of [11]: pick the victim with
// the longest queue, then — among its first few tasks — prefer the one
// whose operands are already resident or in flight on the thief.
func (w WorkStealing) Steal(thief topology.DeviceID, s SchedState) (topology.DeviceID, int, bool) {
	if w.NoSteal {
		return 0, 0, false
	}
	victim := topology.DeviceID(-1)
	best := 0
	for d := 0; d < s.NumDevices(); d++ {
		if topology.DeviceID(d) == thief {
			continue
		}
		if l := s.QueueLen(topology.DeviceID(d)); l > best {
			best = l
			victim = topology.DeviceID(d)
		}
	}
	if victim < 0 {
		return 0, 0, false
	}
	scan := s.QueueLen(victim)
	if scan > stealScanDepth {
		scan = stealScanDepth
	}
	bestIdx, bestScore := 0, -1
	for i := 0; i < scan; i++ {
		t := s.PeekQueue(victim, i)
		score := 0
		for a := 0; a < t.NumAccesses(); a++ {
			tile := t.AccessTile(a)
			if tile.ValidOn(thief) || tile.InflightTo(thief) {
				score++
			}
		}
		if score > bestScore {
			bestScore = score
			bestIdx = i
		}
	}
	return victim, bestIdx, true
}

// DMDAS is the StarPU data-aware sorted scheduler the paper configures for
// Chameleon and DPLASMA (§IV-A): each ready task goes to the device
// minimising estimated completion time (availability + missing-operand
// transfer cost + kernel cost), queues are priority-sorted, and no stealing
// occurs.
type DMDAS struct{}

// Name implements Scheduler.
func (DMDAS) Name() string { return "dmdas" }

// Sorted implements Scheduler: queues are priority-sorted and load-tracked.
func (DMDAS) Sorted() bool { return true }

// Assign implements the minimum-completion-time rule with the simulator's
// timing model standing in for StarPU's trained performance model.
func (DMDAS) Assign(t SchedTask, s SchedState) topology.DeviceID {
	est := s.EstimateExec(t)
	best := topology.DeviceID(0)
	bestEnd := sim.Infinity
	for d := 0; d < s.NumDevices(); d++ {
		dev := topology.DeviceID(d)
		avail := s.KernelAvailableAt(dev) + s.EstLoad(dev)
		var xfer sim.Time
		for i := 0; i < t.NumAccesses(); i++ {
			if !t.AccessReads(i) {
				continue
			}
			tile := t.AccessTile(i)
			if tile.ValidOn(dev) || tile.InflightTo(dev) {
				continue
			}
			src := topology.Host
			if gs := tile.ValidGPUs(); !gs.Empty() {
				src = gs.First()
			} else if !tile.HostValid() {
				src = tile.DirtyOn()
			}
			xfer += s.TransferEstimate(src, dev, tile.SizeBytes())
		}
		if end := avail + xfer + est; end < bestEnd {
			bestEnd = end
			best = dev
		}
	}
	return best
}

// Steal implements Scheduler: DMDAS never migrates queued tasks.
func (DMDAS) Steal(topology.DeviceID, SchedState) (topology.DeviceID, int, bool) {
	return 0, 0, false
}
