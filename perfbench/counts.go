package main

import (
	"xkblas/internal/baseline"
	"xkblas/internal/cache"
	"xkblas/internal/core"
	"xkblas/internal/metrics"
	"xkblas/internal/policy"
)

// simCounts accumulates the simulated per-layer counters of one iteration
// from what the API already returns: baseline.Result, Handle.Eng.Fired,
// Handle.RT.Stats and RT.CollectMetrics. Every value is a pure function of
// the simulated inputs, so two iterations of one seed must agree exactly.
type simCounts struct {
	cache cache.Stats
	dec   policy.Decisions

	events                     uint64
	tasks, steals, stalls      int64
	tasksLiveMax, tilesLiveMax float64
	stallSeconds               float64

	// Simulated busy seconds summed over devices, and the GPU-seconds
	// available (elapsed × GPUs), for kernel utilization.
	kernelBusy, h2dBusy, d2hBusy, nvlinkBusy, pcieBusy float64
	gpuSeconds                                         float64
}

// addResult adds the cache and policy counters of one library run.
func (c *simCounts) addResult(res baseline.Result) {
	addCache(&c.cache, res.Cache)
	addDecisions(&c.dec, res.Decisions)
}

// addHandle adds the engine, runtime and device counters of a handle whose
// run took elapsed simulated seconds; snap is its RT.CollectMetrics.
func (c *simCounts) addHandle(h *core.Handle, snap metrics.Snapshot, elapsed float64) {
	c.events += h.Eng.Fired()
	st := h.RT.Stats()
	c.tasks += st.TasksRun
	c.steals += st.Steals
	c.stallSeconds += float64(st.StallTime)
	g := func(name string) float64 {
		s, ok := snap.Get(name)
		if !ok {
			return 0
		}
		if s.Kind == metrics.KindCounter {
			return float64(s.Int)
		}
		return s.Float
	}
	c.stalls += int64(g("rt.window_stalls"))
	c.tasksLiveMax = max(c.tasksLiveMax, g("rt.tasks_live_max"))
	c.tilesLiveMax = max(c.tilesLiveMax, g("cache.tiles_live_max"))
	c.kernelBusy += g("class.kernel.busy_seconds")
	c.h2dBusy += g("class.h2d.busy_seconds")
	c.d2hBusy += g("class.d2h.busy_seconds")
	c.nvlinkBusy += g("class.nvlink.busy_seconds")
	c.pcieBusy += g("class.pcie.busy_seconds")
	c.gpuSeconds += elapsed * float64(len(h.Plat.GPUs))
}

// publish writes the counters under their per-layer metric names.
func (c *simCounts) publish(m map[string]float64) {
	cs, d := c.cache, c.dec
	m["xkrt.tasks_run"] = float64(c.tasks)
	m["xkrt.steals"] = float64(c.steals)
	m["xkrt.window_stalls"] = float64(c.stalls)
	m["xkrt.tasks_live_max"] = c.tasksLiveMax
	m["xkrt.stall_s"] = c.stallSeconds
	m["sim.events"] = float64(c.events)
	m["cache.hits"] = float64(cs.Hits)
	m["cache.misses"] = float64(cs.Misses)
	m["cache.hit_ratio"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
	m["cache.inflight_waits"] = float64(cs.InflightWaits)
	m["cache.evictions"] = float64(cs.Evictions)
	m["cache.h2d_gb"] = float64(cs.H2DBytes) / 1e9
	m["cache.d2h_gb"] = float64(cs.D2HBytes) / 1e9
	m["cache.p2p_gb"] = float64(cs.P2PBytes) / 1e9
	m["cache.tiles_live_max"] = c.tilesLiveMax
	m["policy.src_nvlink2"] = float64(d.SrcNVLink2)
	m["policy.src_nvlink1"] = float64(d.SrcNVLink1)
	m["policy.src_pcie_p2p"] = float64(d.SrcPCIeP2P)
	m["policy.src_host"] = float64(d.SrcHost)
	m["policy.chain_taken"] = float64(d.ChainsTaken)
	m["policy.chain_ratio"] = ratio(float64(d.ChainsTaken), float64(d.ChainsTaken+d.ChainsMissed))
	m["policy.owner_ratio"] = ratio(float64(d.OwnerHits), float64(d.OwnerHits+d.Steals))
	m["policy.dispatch_host"] = float64(d.DispatchHost)
	m["policy.dispatch_device"] = float64(d.DispatchDevice)
	m["device.kernel_util"] = ratio(c.kernelBusy, c.gpuSeconds)
	m["device.h2d_busy_s"] = c.h2dBusy
	m["device.d2h_busy_s"] = c.d2hBusy
	m["device.nvlink_busy_s"] = c.nvlinkBusy
	m["device.pcie_busy_s"] = c.pcieBusy
}

func addCache(dst *cache.Stats, s cache.Stats) {
	dst.H2DBytes += s.H2DBytes
	dst.D2HBytes += s.D2HBytes
	dst.P2PBytes += s.P2PBytes
	dst.H2DCount += s.H2DCount
	dst.D2HCount += s.D2HCount
	dst.P2PCount += s.P2PCount
	dst.Evictions += s.Evictions
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.InflightWaits += s.InflightWaits
}

func addDecisions(dst *policy.Decisions, d policy.Decisions) {
	dst.SrcNVLink2 += d.SrcNVLink2
	dst.SrcNVLink1 += d.SrcNVLink1
	dst.SrcPCIeP2P += d.SrcPCIeP2P
	dst.SrcNet += d.SrcNet
	dst.SrcHost += d.SrcHost
	dst.ChainsTaken += d.ChainsTaken
	dst.ChainsMissed += d.ChainsMissed
	dst.EvictClean += d.EvictClean
	dst.EvictDirtySkipped += d.EvictDirtySkipped
	dst.OwnerHits += d.OwnerHits
	dst.Steals += d.Steals
	dst.DispatchDevice += d.DispatchDevice
	dst.DispatchHost += d.DispatchHost
}
