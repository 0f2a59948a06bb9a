package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one metric with its unit and the direction that is
// better; Bound, the share by which a metric may worsen, applies to the
// end-to-end metrics only. BENCHMARK.json at the repository root carries
// the same catalogue and a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd is printed by every untraced run. Host costs are CPU time of
// this one process (see README.md for why not wall time); the simulated
// metrics are modelled numbers that repeat exactly for a seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"throughput", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"model_tflops", "TFlop/s", "higher", 0.1},
	{"served_frac", "ratio", "higher", 0.15},
	{"p50_latency_s", "s", "lower", 0.15},
	{"p99_latency_s", "s", "lower", 0.2},
}

// perLayer is printed by every traced run. A metric of a layer a workload
// does not exercise reads 0 on that workload.
var perLayer = []metricDef{
	{Name: "topology.build_s", Unit: "s", Better: "lower"},
	{Name: "core.new_handle_s", Unit: "s", Better: "lower"},
	{Name: "bench.self_s", Unit: "s", Better: "lower"},
	{Name: "bench.paper_gap_pp", Unit: "pp", Better: "lower"},
	{Name: "baseline.leaf_runs", Unit: "count", Better: "higher"},
	{Name: "baseline.leaf_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "baseline.leaf_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "baseline.xkblas.cpu_s", Unit: "s", Better: "lower"},
	{Name: "baseline.xkblas_dod.cpu_s", Unit: "s", Better: "lower"},
	{Name: "baseline.xkblas_noheur.cpu_s", Unit: "s", Better: "lower"},
	{Name: "baseline.xkblas_notopo.cpu_s", Unit: "s", Better: "lower"},
	{Name: "baseline.cublas_xt.cpu_s", Unit: "s", Better: "lower"},
	{Name: "baseline.chameleon_tile.cpu_s", Unit: "s", Better: "lower"},
	{Name: "core.submit_s", Unit: "s", Better: "lower"},
	{Name: "core.sync_s", Unit: "s", Better: "lower"},
	{Name: "xkrt.tasks_run", Unit: "count", Better: "higher"},
	{Name: "xkrt.ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "xkrt.steals", Unit: "count", Better: "lower"},
	{Name: "xkrt.window_stalls", Unit: "count", Better: "lower"},
	{Name: "xkrt.tasks_live_max", Unit: "count", Better: "lower"},
	{Name: "xkrt.stall_s", Unit: "s", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "cache.hits", Unit: "count", Better: "higher"},
	{Name: "cache.misses", Unit: "count", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.inflight_waits", Unit: "count", Better: "lower"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cache.h2d_gb", Unit: "GB", Better: "lower"},
	{Name: "cache.d2h_gb", Unit: "GB", Better: "lower"},
	{Name: "cache.p2p_gb", Unit: "GB", Better: "higher"},
	{Name: "cache.tiles_live_max", Unit: "count", Better: "lower"},
	{Name: "policy.src_nvlink2", Unit: "count", Better: "higher"},
	{Name: "policy.src_nvlink1", Unit: "count", Better: "higher"},
	{Name: "policy.src_pcie_p2p", Unit: "count", Better: "lower"},
	{Name: "policy.src_host", Unit: "count", Better: "lower"},
	{Name: "policy.chain_taken", Unit: "count", Better: "higher"},
	{Name: "policy.chain_ratio", Unit: "ratio", Better: "higher"},
	{Name: "policy.owner_ratio", Unit: "ratio", Better: "higher"},
	{Name: "policy.dispatch_host", Unit: "count", Better: "higher"},
	{Name: "policy.dispatch_device", Unit: "count", Better: "lower"},
	{Name: "device.kernel_util", Unit: "ratio", Better: "higher"},
	{Name: "device.h2d_busy_s", Unit: "s", Better: "lower"},
	{Name: "device.d2h_busy_s", Unit: "s", Better: "lower"},
	{Name: "device.nvlink_busy_s", Unit: "s", Better: "higher"},
	{Name: "device.pcie_busy_s", Unit: "s", Better: "lower"},
	{Name: "hostblas.ref_s", Unit: "s", Better: "lower"},
	{Name: "hostblas.ref_gflop", Unit: "GFlop", Better: "higher"},
	{Name: "hostblas.gflops", Unit: "GFlop/s", Better: "higher"},
	{Name: "serve.trace_s", Unit: "s", Better: "lower"},
	{Name: "serve.run_s", Unit: "s", Better: "lower"},
	{Name: "serve.served", Unit: "count", Better: "higher"},
	{Name: "serve.rejected_quota", Unit: "count", Better: "lower"},
	{Name: "serve.rejected_queue", Unit: "count", Better: "lower"},
	{Name: "serve.timed_out", Unit: "count", Better: "lower"},
	{Name: "serve.fused_units", Unit: "count", Better: "higher"},
	{Name: "serve.free.p99_s", Unit: "s", Better: "lower"},
	{Name: "serve.standard.p99_s", Unit: "s", Better: "lower"},
	{Name: "serve.premium.p99_s", Unit: "s", Better: "lower"},
	{Name: "serve.dgx1.util", Unit: "ratio", Better: "higher"},
	{Name: "serve.dgx2.util", Unit: "ratio", Better: "higher"},
	{Name: "go.mallocs", Unit: "count", Better: "lower"},
	{Name: "go.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "metrics.collect_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "host.setup_s", Unit: "s", Better: "lower"},
	{Name: "host.cpu_s", Unit: "s", Better: "lower"},
	{Name: "host.wall_s", Unit: "s", Better: "lower"},
	{Name: "host.steal_frac", Unit: "ratio", Better: "lower"},
}

// spanMetric maps a span name to the per-layer metric its self time feeds.
// Library.Run spans are named "baseline.Run/<lib>" and map separately.
var spanMetric = map[string]string{
	"topology.Build":      "topology.build_s",
	"core.NewHandle":      "core.new_handle_s",
	"bench.MeasurePoint":  "bench.self_s",
	"core.Submit":         "core.submit_s",
	"core.Sync":           "core.sync_s",
	"hostblas.Reference":  "hostblas.ref_s",
	"serve.GenerateTrace": "serve.trace_s",
	"serve.Run":           "serve.run_s",
	"xkrt.CollectMetrics": "metrics.collect_s",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints every metric of the catalogue by name with its unit, then
// the summary as one JSON line. A metric missing from values reads 0.
func emit(w io.Writer, defs []metricDef, values map[string]float64, notes map[string]string, s summary) error {
	s.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.Name]
		s.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		line := fmt.Sprintf("%-30s %.6g %s", d.Name, v, d.Unit)
		if n := notes[d.Name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(w, line)
	}
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
