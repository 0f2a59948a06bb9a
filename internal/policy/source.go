package policy

import "xkblas/internal/topology"

// SourceSelector decides where a tile replica is read from — the decision
// axis both paper heuristics live on. A selector answers two questions:
// which valid GPU replica (if any) serves a peer read, and whether a fetch
// that would otherwise re-read host memory should chain onto an in-flight
// replica instead (§III-C). The invariant fallback order around those two
// questions (host copy, dirty holder, forced chain) is shared by every
// policy and lives in SelectSource.
type SourceSelector interface {
	Name() string

	// PickPeer chooses the transfer source among the devices holding a
	// valid replica (cands is non-empty; ties go to the lowest id).
	// ok=false rejects every peer and falls through to the host-read path —
	// how host-only (cuBLAS-XT, SLATE) and filtered (BLASX same-switch)
	// policies are expressed.
	PickPeer(topo *topology.Platform, cands topology.DeviceSet, dst topology.DeviceID) (src topology.DeviceID, ok bool)

	// PickInflight chooses an in-flight destination to chain on when the
	// host copy is valid but no acceptable peer exists. ok=false reads
	// from the host instead. Implementations count their chain decisions
	// in c (nil-safe).
	PickInflight(topo *topology.Platform, tile TileView, dst topology.DeviceID, c *Counters) (src topology.DeviceID, ok bool)
}

// SelectSource runs the invariant source-selection skeleton with the
// pluggable policy:
//
//  1. If one or more GPUs hold a valid replica, let the selector pick among
//     (or reject all of) them.
//  2. Else, if the host copy is valid: let the selector chain onto an
//     in-flight replica (§III-C), otherwise read from the host.
//  3. Else the single dirty GPU replica is the source.
//  4. Else the only copy is in flight: wait on its first destination.
//
// The returned chained flag means "src is an in-flight destination to wait
// on", not a valid holder. ok=false means the tile has no copy anywhere —
// a runtime invariant violation the caller should panic on.
func SelectSource(sel SourceSelector, topo *topology.Platform, tile TileView, dst topology.DeviceID, c *Counters) (src topology.DeviceID, chained, ok bool) {
	if cands := tile.ValidGPUs(); !cands.Empty() {
		if src, ok := sel.PickPeer(topo, cands, dst); ok {
			return src, false, true
		}
	}
	if tile.HostValid() {
		if g, ok := sel.PickInflight(topo, tile, dst, c); ok {
			return g, true, true
		}
		return topology.Host, false, true
	}
	if dirty := tile.DirtyOn(); dirty >= 0 {
		return dirty, false, true
	}
	if infl := tile.InflightDsts(); !infl.Empty() {
		return infl.First(), true, true
	}
	return -1, false, false
}

// noChain is the PickInflight of every non-optimistic selector: never
// chain, always fall back to the host read.
type noChain struct{}

func (noChain) PickInflight(*topology.Platform, TileView, topology.DeviceID, *Counters) (topology.DeviceID, bool) {
	return -1, false
}

// TopoRank is the paper's topology-aware source selection (§III-B): among
// valid replicas, read from the one reachable over the best link to the
// destination (2×NVLink ≻ 1×NVLink ≻ PCIe P2P), first id winning ties.
type TopoRank struct{ noChain }

// Name implements SourceSelector.
func (TopoRank) Name() string { return "topo-rank" }

// PickPeer implements SourceSelector.
func (TopoRank) PickPeer(topo *topology.Platform, cands topology.DeviceSet, dst topology.DeviceID) (topology.DeviceID, bool) {
	best := cands.First()
	bestRank := topo.P2PPerformanceRank(best, dst)
	for s := cands.Rest(); !s.Empty(); s = s.Rest() {
		c := s.First()
		if r := topo.P2PPerformanceRank(c, dst); r > bestRank {
			best, bestRank = c, r
		}
	}
	return best, true
}

// NearestFirst reads from the valid replica with the fewest charged fabric
// hops to the destination — the routed-graph generalization of TopoRank's
// link ranking. On the DGX-1 the two mostly agree (NVLink peers are one hop,
// PCIe peers three); the distance metric also separates what ranks cannot:
// on a multi-node fleet every cross-node peer shares LinkNet rank 0 with
// nothing, but hop count still prefers a same-node PCIe replica (3 hops)
// over a cross-node one (3 hops at lower bottleneck bandwidth — broken by
// the bandwidth tie-break), and on DGX-A100 it sees through the uniform
// plane. Ties break toward the higher-bandwidth route, then the lowest id.
type NearestFirst struct{ noChain }

// Name implements SourceSelector.
func (NearestFirst) Name() string { return "nearest-first" }

// PickPeer implements SourceSelector.
func (NearestFirst) PickPeer(topo *topology.Platform, cands topology.DeviceSet, dst topology.DeviceID) (topology.DeviceID, bool) {
	best := cands.First()
	bestHops := topo.HopDistance(best, dst)
	bestBW := topo.GPULink(best, dst).BandwidthGBs
	for s := cands.Rest(); !s.Empty(); s = s.Rest() {
		c := s.First()
		h, bw := topo.HopDistance(c, dst), topo.GPULink(c, dst).BandwidthGBs
		if h < bestHops || (h == bestHops && bw > bestBW) {
			best, bestHops, bestBW = c, h, bw
		}
	}
	return best, true
}

// LowestID is the topology-oblivious baseline of the Fig. 3 ablation: among
// valid replicas, pick the lowest device id regardless of link quality.
type LowestID struct{ noChain }

// Name implements SourceSelector.
func (LowestID) Name() string { return "lowest-id" }

// PickPeer implements SourceSelector.
func (LowestID) PickPeer(_ *topology.Platform, cands topology.DeviceSet, _ topology.DeviceID) (topology.DeviceID, bool) {
	return cands.First(), true
}

// HostOnly never reads from a peer GPU while the host copy is valid:
// cuBLAS-XT and SLATE route all operand traffic over the PCIe host links
// (§II-A, §II-B).
type HostOnly struct{ noChain }

// Name implements SourceSelector.
func (HostOnly) Name() string { return "host-only" }

// PickPeer implements SourceSelector.
func (HostOnly) PickPeer(*topology.Platform, topology.DeviceSet, topology.DeviceID) (topology.DeviceID, bool) {
	return -1, false
}

// SameSwitch restricts peer reads to GPUs behind the destination's PCIe
// switch — BLASX's two-level software cache (§II-C) — and delegates the
// pick among the survivors to Base. On a flat NVSwitch fabric (DGX-2) the
// restriction follows the PCIe switch pairing, not the NVLink crossbar.
type SameSwitch struct {
	noChain
	Base SourceSelector
}

// Name implements SourceSelector.
func (s SameSwitch) Name() string { return "same-switch(" + s.Base.Name() + ")" }

// PickPeer implements SourceSelector.
func (s SameSwitch) PickPeer(topo *topology.Platform, cands topology.DeviceSet, dst topology.DeviceID) (topology.DeviceID, bool) {
	var local topology.DeviceSet
	for rest := cands; !rest.Empty(); rest = rest.Rest() {
		if c := rest.First(); topo.SameSwitch(c, dst) {
			local = local.With(c)
		}
	}
	if local.Empty() {
		return -1, false
	}
	return s.Base.PickPeer(topo, local, dst)
}

// Optimistic wraps a base selector with the paper's second heuristic
// (§III-C): when the base falls back to a host read, chain onto a replica
// already in flight to another GPU and forward device-to-device instead of
// issuing a second PCIe host read. Ranked selects the chain target by link
// rank to the destination (the full XKBLAS configuration); unranked takes
// the first in-flight destination.
type Optimistic struct {
	Base   SourceSelector
	Ranked bool
}

// Name implements SourceSelector.
func (o Optimistic) Name() string { return "optimistic(" + o.Base.Name() + ")" }

// PickPeer implements SourceSelector.
func (o Optimistic) PickPeer(topo *topology.Platform, cands topology.DeviceSet, dst topology.DeviceID) (topology.DeviceID, bool) {
	return o.Base.PickPeer(topo, cands, dst)
}

// PickInflight implements SourceSelector: the in-flight destination with
// the best link to dst (rank order when Ranked, else first), excluding dst
// itself. Chain hits and misses are counted in c.
func (o Optimistic) PickInflight(topo *topology.Platform, tile TileView, dst topology.DeviceID, c *Counters) (topology.DeviceID, bool) {
	var best topology.DeviceID = -1
	bestRank := -1
	for s := tile.InflightDsts().Without(dst); !s.Empty(); s = s.Rest() {
		g := s.First()
		r := 0
		if o.Ranked {
			r = topo.P2PPerformanceRank(g, dst)
		}
		if best < 0 || r > bestRank {
			best, bestRank = g, r
		}
	}
	if best < 0 {
		c.countChainMissed()
		return -1, false
	}
	c.countChainTaken()
	return best, true
}
