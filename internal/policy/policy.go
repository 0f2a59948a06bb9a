// Package policy is the pluggable decision layer of the runtime: which
// replica a transfer reads from (SourceSelector), where a ready task runs
// (Scheduler) and whether read operands stay on the device after use
// (Evictor).
//
// The paper's whole claim structure is "same kernels, different
// data-movement policy wins" (§III-B/§III-C versus the §II libraries), so
// the policies are first-class named values instead of booleans smeared
// across the runtime: XKBLAS is TopoRank+Optimistic over work stealing,
// cuBLAS-XT is HostOnly over static dispatch with streaming eviction,
// BLASX is SameSwitch, Chameleon/DPLASMA are DMDAS, and so on. Every
// decision a policy takes is counted in Decisions, which makes the Fig. 3
// and Fig. 6 differences explainable from counted choices rather than
// only from aggregate times.
//
// Policy implementations are stateless, immutable values: one Bundle is
// shared by every concurrent simulation of a benchmark sweep, so all
// mutable state (ready queues, round-robin cursors, counters) lives in the
// runtime and is reached through the SchedState/TileView interfaces.
package policy

import (
	"fmt"

	"xkblas/internal/metrics"
	"xkblas/internal/topology"
)

// Decisions counts every choice the policy layer took during one run. The
// runtime keeps one as a plain value and increments it where each decision
// is taken; the cache counts the two eviction outcomes, which the runtime
// copies in when it reports. The counters explain *why* a configuration is
// fast or slow: e.g. the Fig. 3 gap between XKBlas and its no-topo
// ablation shows up here as peer traffic shifting from SrcNVLink2 to
// SrcPCIeP2P/SrcHost before it shows up as lost GFlop/s.
type Decisions struct {
	// Transfer sources by link class of the chosen route (the ranking
	// order of §III-B): double NVLink, single NVLink (or NVLink-to-host on
	// POWER9 nodes), PCIe peer-to-peer, peer routes crossing the
	// inter-node network of a multi-node fabric, and host memory.
	SrcNVLink2 int64
	SrcNVLink1 int64
	SrcPCIeP2P int64
	SrcNet     int64
	SrcHost    int64

	// Optimistic-forwarding outcomes (§III-C): ChainsTaken counts fetches
	// that chained onto an in-flight replica instead of re-reading host
	// memory; ChainsMissed counts fetches where the heuristic looked for a
	// chain but found no in-flight replica and fell back to the host.
	ChainsTaken  int64
	ChainsMissed int64

	// Eviction outcomes: EvictClean counts clean replicas dropped by the
	// capacity evictor; EvictDirtySkipped counts dirty replicas the
	// eviction scan had to walk past (a dirty replica holds the only copy
	// of its tile and is never dropped silently).
	EvictClean        int64
	EvictDirtySkipped int64

	// Scheduling outcomes: OwnerHits counts tasks started on the device
	// their mapping assigned them to; Steals counts tasks migrated to an
	// idle device by work stealing.
	OwnerHits int64
	Steals    int64

	// Host/device dispatch outcomes of batched small-op requests: for each
	// batch instance the model-derived crossover either sends it down the
	// tiled device path (DispatchDevice) or executes it on the host BLAS
	// server, skipping the transfer cost entirely (DispatchHost).
	DispatchDevice int64
	DispatchHost   int64
}

// CountDispatch records one batch-instance dispatch decision: host = true
// for the host BLAS path, false for the tiled device path.
func (d *Decisions) CountDispatch(host bool) {
	if host {
		d.DispatchHost++
	} else {
		d.DispatchDevice++
	}
}

// CountTransfer classifies the link a transfer src→dst was chosen to cross
// and bumps the matching source counter.
func (d *Decisions) CountTransfer(topo *topology.Platform, src, dst topology.DeviceID) {
	if src == topology.Host {
		d.SrcHost++
		return
	}
	switch topo.Link(src, dst).Kind {
	case topology.LinkNVLink2:
		d.SrcNVLink2++
	case topology.LinkNVLink1, topology.LinkNVLinkHost:
		d.SrcNVLink1++
	case topology.LinkNet:
		d.SrcNet++
	default:
		d.SrcPCIeP2P++
	}
}

// Publish stores the counts into reg under the "policy." prefix. The
// dispatch pair keeps its own prefix: it counts a request-level routing
// decision, not a per-tile runtime policy choice.
func (d Decisions) Publish(reg *metrics.Registry) {
	reg.Counter("policy.src.nvlink2").Store(d.SrcNVLink2)
	reg.Counter("policy.src.nvlink1").Store(d.SrcNVLink1)
	reg.Counter("policy.src.pcie_p2p").Store(d.SrcPCIeP2P)
	reg.Counter("policy.src.net").Store(d.SrcNet)
	reg.Counter("policy.src.host").Store(d.SrcHost)
	reg.Counter("policy.chain.taken").Store(d.ChainsTaken)
	reg.Counter("policy.chain.missed").Store(d.ChainsMissed)
	reg.Counter("policy.evict.clean").Store(d.EvictClean)
	reg.Counter("policy.evict.dirty_skipped").Store(d.EvictDirtySkipped)
	reg.Counter("policy.sched.owner_hits").Store(d.OwnerHits)
	reg.Counter("policy.sched.steals").Store(d.Steals)
	reg.Counter("dispatch.device").Store(d.DispatchDevice)
	reg.Counter("dispatch.host").Store(d.DispatchHost)
}

// Transfers reports the total number of counted transfer-source decisions.
func (d Decisions) Transfers() int64 {
	return d.SrcNVLink2 + d.SrcNVLink1 + d.SrcPCIeP2P + d.SrcNet + d.SrcHost
}

func (d Decisions) String() string {
	s := fmt.Sprintf(
		"src{nv2:%d nv1:%d pcie:%d net:%d host:%d} chain{taken:%d missed:%d} evict{clean:%d dirty-skip:%d} sched{owner:%d steal:%d}",
		d.SrcNVLink2, d.SrcNVLink1, d.SrcPCIeP2P, d.SrcNet, d.SrcHost,
		d.ChainsTaken, d.ChainsMissed,
		d.EvictClean, d.EvictDirtySkipped,
		d.OwnerHits, d.Steals)
	if d.DispatchDevice != 0 || d.DispatchHost != 0 {
		s += fmt.Sprintf(" dispatch{dev:%d host:%d}", d.DispatchDevice, d.DispatchHost)
	}
	return s
}

// TileView is the replica-placement view the policies consume: which
// devices hold a valid copy, where the host copy stands, and which
// transfers are in flight. The two device sets are values, so reading them
// allocates nothing. *cache.Tile implements it.
type TileView interface {
	// ValidGPUs reports the devices holding a valid replica.
	ValidGPUs() topology.DeviceSet
	// HostValid reports whether the host copy is current.
	HostValid() bool
	// DirtyOn reports the device holding the sole modified replica, or -1.
	DirtyOn() topology.DeviceID
	// InflightDsts reports the devices with a replica under transfer.
	InflightDsts() topology.DeviceSet
	// ValidOn reports whether dev holds a valid replica.
	ValidOn(dev topology.DeviceID) bool
	// InflightTo reports whether a transfer to dev is in progress.
	InflightTo(dev topology.DeviceID) bool
	// SizeBytes reports the tile payload size.
	SizeBytes() int64
	// HomeOwner reports the owner-computes home device (-1 unassigned).
	HomeOwner() topology.DeviceID
	// SetHomeOwner records the owner-computes home device.
	SetHomeOwner(dev topology.DeviceID)
	// Coords reports the tile's (i, j) position in its matrix tile grid.
	Coords() (i, j int)
}

// Bundle is a complete, declarative runtime policy: one value per decision
// axis. Bundles are immutable and safe to share across concurrent
// simulations; the baseline libraries are each expressed as one Bundle.
type Bundle struct {
	Source    SourceSelector
	Scheduler Scheduler
	Evictor   Evictor
}

// Validate reports a descriptive error when a bundle axis is missing.
func (b Bundle) Validate() error {
	if b.Source == nil {
		return fmt.Errorf("policy: bundle has no SourceSelector")
	}
	if b.Scheduler == nil {
		return fmt.Errorf("policy: bundle has no Scheduler")
	}
	if b.Evictor == nil {
		return fmt.Errorf("policy: bundle has no Evictor")
	}
	return nil
}

// Name renders the bundle as "source/scheduler/evictor".
func (b Bundle) Name() string {
	return fmt.Sprintf("%s/%s/%s", b.Source.Name(), b.Scheduler.Name(), b.Evictor.Name())
}

// The named bundles are the configurations used in more than one place:
// the full XKBLAS policy, the two Fig. 3 ablations that switch the
// paper's heuristics off one at a time, and the scheduler ablation. Like
// every bundle they are shared by reference and never modified.
var (
	// XKBlas is the full library: topology-ranked sources (§III-B) with
	// optimistic device-to-device forwarding (§III-C) over XKaapi work
	// stealing.
	XKBlas = Bundle{
		Source:    Optimistic{Base: TopoRank{}},
		Scheduler: WorkStealing{},
		Evictor:   LRUReadOnlyFirst{},
	}
	// NoHeuristic drops the optimistic forwarding ("XKBlas, no heuristic").
	NoHeuristic = Bundle{
		Source:    TopoRank{},
		Scheduler: WorkStealing{},
		Evictor:   LRUReadOnlyFirst{},
	}
	// NoHeuristicNoTopo drops both heuristics: the source among valid
	// replicas is the lowest device id ("XKBlas, no heuristic, no topo").
	NoHeuristicNoTopo = Bundle{
		Source:    LowestID{},
		Scheduler: WorkStealing{},
		Evictor:   LRUReadOnlyFirst{},
	}
	// XKBlasDMDAS keeps both heuristics but schedules with StarPU's DMDAS
	// instead of work stealing.
	XKBlasDMDAS = Bundle{
		Source:    Optimistic{Base: TopoRank{}},
		Scheduler: DMDAS{},
		Evictor:   LRUReadOnlyFirst{},
	}
)
