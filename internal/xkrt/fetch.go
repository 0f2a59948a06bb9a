package xkrt

import (
	"errors"
	"fmt"

	"xkblas/internal/cache"
	"xkblas/internal/policy"
	"xkblas/internal/topology"
)

// fetchInput stages one input tile onto dev, counting it against the task's
// pendingFetch; the kernel launches once every input has arrived. The task
// itself waits for the replica (Task.Arrived), so a miss allocates nothing.
func (rt *Runtime) fetchInput(t *Task, tile *cache.Tile, dev topology.DeviceID) {
	if tile.ValidOn(dev) {
		rt.Cache.NoteHit()
		rt.Cache.Pin(tile, dev)
		rt.Cache.Touch(tile, dev)
		return
	}
	rt.Cache.NoteMiss()
	t.pendingFetch++
	rt.requestReplica(tile, dev, t)
}

// Arrived implements cache.Waiter. A compute task pins and touches the
// arrived input and launches its kernel once the last one lands; a
// prefetch or flush task is done. An error means the chain feeding the
// replica was cancelled: the run fails and the task never completes.
func (t *Task) Arrived(tile *cache.Tile, dev topology.DeviceID, err error) {
	rt := t.rt
	if err != nil {
		rt.fail(err)
		return
	}
	if t.kind != kindCompute {
		rt.taskDone(t)
		return
	}
	rt.Cache.Pin(tile, dev)
	rt.Cache.Touch(tile, dev)
	t.pendingFetch--
	if t.pendingFetch == 0 {
		rt.launchKernel(t)
	}
}

// requestReplica is the shared fetch-planning prologue of kernel-input
// staging and prefetch: piggyback on a transfer already headed to dev, or
// let the source policy choose where the replica comes from and issue the
// movement. w is notified once the replica is valid on dev, or with the
// error if the transfer chain feeding dev fails.
func (rt *Runtime) requestReplica(tile *cache.Tile, dev topology.DeviceID, w cache.Waiter) {
	if tile.InflightTo(dev) {
		// Another consumer on this device already requested the tile:
		// piggyback, never duplicate a transfer.
		rt.Cache.NoteInflightWait()
		tile.AddInflightWaiter(dev, w)
		return
	}
	src, chained := rt.selectSource(tile, dev)
	rt.issueFetch(tile, src, dev, chained, w)
}

// selectSource delegates to the bundle's source policy (§III-B/§III-C via
// policy.SelectSource). The returned chained flag means "src is an
// in-flight destination to wait on", not a valid holder.
func (rt *Runtime) selectSource(tile *cache.Tile, dst topology.DeviceID) (topology.DeviceID, bool) {
	src, chained, ok := policy.SelectSource(rt.pol.Source, rt.Plat.Topo, tile, dst, rt.counters)
	if !ok {
		panic(fmt.Sprintf("xkrt: tile %v has no valid copy anywhere", tile.Key))
	}
	return src, chained
}

// issueFetch starts the physical movement chosen by the source policy. For
// a chained source it registers the under-transfer state on dst immediately —
// the §III-C metadata extension — so further consumers piggyback on dst's
// pending arrival rather than issuing their own copies.
func (rt *Runtime) issueFetch(tile *cache.Tile, src topology.DeviceID, dst topology.DeviceID, chained bool, w cache.Waiter) {
	if !chained {
		if src == topology.Host {
			rt.stats.HostFallbacks++
		} else {
			rt.stats.PeerSources++
		}
		rt.counters.CountTransfer(rt.Plat.Topo, src, dst)
		if err := rt.Cache.StartTransfer(tile, src, dst, w); err != nil {
			if errors.Is(err, cache.ErrDeviceOOM) {
				rt.fail(fmt.Errorf("xkrt: fetch of %v to GPU %d: %w", tile.Key, dst, err))
				return
			}
			panic(fmt.Sprintf("xkrt: %v", err))
		}
		return
	}
	rt.stats.ChainedHops++
	rt.Cache.MarkInflight(tile, dst)
	// Remember the synthetic mark so a run cancellation can sweep it: if the
	// upstream hop never lands (engine aborted), nothing else would notify
	// the waiters piggybacked on dst.
	rt.chains = append(rt.chains, chainMark{tile: tile, dst: dst})
	tile.AddInflightWaiter(src, &chainHop{rt: rt, src: src, dst: dst, next: w})
}

// chainHop is the forward hop of an optimistic chain: it waits for the
// upstream hop to land on src, then forwards the tile to dst over the peer
// link and hands next to that transfer. The synthetic under-transfer record
// on dst was registered by issueFetch; the hop owns it from here: the
// physical StartTransfer adopts it on the normal path, and every failure
// path cancels it so downstream piggybackers are notified instead of
// wedged (a cancelled chain used to leave InflightTo true forever).
//
// Chains are rare next to misses, so one record per chain is allocated
// rather than pooled.
type chainHop struct {
	rt       *Runtime
	src, dst topology.DeviceID
	next     cache.Waiter
}

// Arrived implements cache.Waiter for the upstream hop's arrival on src.
//
// src being valid here is NOT guaranteed: waiters run in registration
// order, and an earlier waiter of the same arrival can launch a kernel
// whose allocation evicts the just-arrived, unpinned replica on src before
// our StartTransfer runs. The hop therefore re-validates src and, if the
// replica is gone, re-selects a source — possibly another in-flight
// destination, in which case the chain re-arms on it without re-marking
// dst.
func (h *chainHop) Arrived(tile *cache.Tile, _ topology.DeviceID, err error) {
	rt, src, dst := h.rt, h.src, h.dst
	if err != nil {
		// The upstream hop itself was cancelled: cascade.
		rt.Cache.CancelInflight(tile, dst, err)
		rt.fail(err)
		return
	}
	if !tile.ValidOn(src) {
		nsrc, chained := rt.selectSource(tile, dst)
		if nsrc == dst {
			// Unreachable: dst's own record is synthetic (no data is
			// coming) and selectSource only offers dst once every
			// valid/dirty/host copy is gone, which eviction of clean
			// replicas cannot cause. Guard against self-deadlock anyway.
			panic(fmt.Sprintf("xkrt: chained hop of %v re-selected its own destination %d", tile.Key, dst))
		}
		if chained {
			h.src = nsrc
			tile.AddInflightWaiter(nsrc, h)
			return
		}
		src = nsrc
	}
	if src == topology.Host {
		rt.stats.HostFallbacks++
	} else {
		rt.stats.PeerSources++
	}
	rt.counters.CountTransfer(rt.Plat.Topo, src, dst)
	if err := rt.Cache.StartTransfer(tile, src, dst, h.next); err != nil {
		if errors.Is(err, cache.ErrDeviceOOM) {
			ferr := fmt.Errorf("xkrt: chained hop of %v to GPU %d: %w", tile.Key, dst, err)
			rt.Cache.CancelInflight(tile, dst, ferr)
			rt.fail(ferr)
			return
		}
		panic(fmt.Sprintf("xkrt: chained hop: %v", err))
	}
}
