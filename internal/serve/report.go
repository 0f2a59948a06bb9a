package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"xkblas/internal/metrics"
	"xkblas/internal/sim"
)

// LatencyBuckets are the histogram bounds (seconds) for per-tier response
// latency in the metrics snapshot.
var LatencyBuckets = []float64{
	0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50,
}

// TierStats aggregates one service tier's outcomes over a run.
type TierStats struct {
	Name     string
	Tenants  int
	Requests int
	Served   int
	Batched  int // served requests that rode a fused batch

	RejectedQuota int
	RejectedQueue int
	TimedOut      int
	Failed        int

	// Response latency (arrival to completion, virtual seconds) over
	// served requests; nearest-rank percentiles.
	P50, P99, P999, Mean, Max float64

	latencies []float64 // sorted; feeds the snapshot histogram
}

// PlatformStats aggregates one fleet platform's activity.
type PlatformStats struct {
	Name        string
	ServedUnits int // service units completed (a fused batch counts once)
	FusedUnits  int // units carrying more than one request
	BusySeconds float64
	Utilization float64 // busy / makespan
	InflightMax int
	QueueMax    int // high-water of bounded queue + spill depth
}

// Report is the outcome of one serving run. Every field derives from
// virtual time and the seeded trace, so a report is byte-stable across
// replays regardless of host parallelism or handle reuse.
type Report struct {
	Requests int
	Tenants  int
	Fleet    []string
	Arrival  ArrivalPattern
	Seed     int64

	// Makespan is the virtual time of the last request resolution
	// (service completion or rejection).
	Makespan float64
	// Served/Rejected/TimedOut/Failed partition the requests.
	Served   int
	Rejected int // quota + queue
	TimedOut int
	Failed   int
	// GoodputGFlops is useful (served) work over the makespan.
	ServedGFlop   float64
	GoodputGFlops float64

	Tiers     []TierStats
	Platforms []PlatformStats
}

// quantile is the nearest-rank quantile of a sorted sample set.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func buildReport(cfg *Config, s *server) *Report {
	r := &Report{
		Requests: cfg.Requests,
		Tenants:  cfg.Tenants,
		Fleet:    append([]string(nil), cfg.Fleet...),
		Arrival:  cfg.Arrival,
		Seed:     cfg.Seed,
	}
	r.Tiers = make([]TierStats, len(cfg.Tiers))
	for i, t := range cfg.Tiers {
		r.Tiers[i].Name = t.Name
	}
	for _, tn := range s.tenants {
		r.Tiers[tn.tier].Tenants++
	}

	makespan := sim.Time(0)
	for i := range s.reqs {
		req := &s.reqs[i]
		if req.finished > makespan {
			makespan = req.finished
		}
		ts := &r.Tiers[req.tier]
		ts.Requests++
		switch req.outcome {
		case OutcomeServed:
			ts.Served++
			r.Served++
			if req.batched {
				ts.Batched++
			}
			ts.latencies = append(ts.latencies, float64(req.finished-req.arrived))
		case OutcomeRejectedQuota:
			ts.RejectedQuota++
			r.Rejected++
		case OutcomeRejectedQueue:
			ts.RejectedQueue++
			r.Rejected++
		case OutcomeTimedOut:
			ts.TimedOut++
			r.TimedOut++
		default:
			ts.Failed++
			r.Failed++
		}
	}
	r.Makespan = float64(makespan)

	for i := range r.Tiers {
		ts := &r.Tiers[i]
		sort.Float64s(ts.latencies)
		ts.P50 = quantile(ts.latencies, 0.50)
		ts.P99 = quantile(ts.latencies, 0.99)
		ts.P999 = quantile(ts.latencies, 0.999)
		sum := 0.0
		for _, v := range ts.latencies {
			sum += v
		}
		if n := len(ts.latencies); n > 0 {
			ts.Mean = sum / float64(n)
			ts.Max = ts.latencies[n-1]
		}
	}

	r.ServedGFlop = s.servedFlops / 1e9
	if r.Makespan > 0 {
		r.GoodputGFlops = r.ServedGFlop / r.Makespan
	}

	for _, p := range s.plats {
		st := p.cap.Stats()
		ps := PlatformStats{
			Name:        p.name,
			ServedUnits: p.servedUnits,
			FusedUnits:  p.fusedUnits,
			BusySeconds: float64(st.Busy),
			InflightMax: int(st.InflightMax),
			QueueMax:    p.queueHi,
		}
		if r.Makespan > 0 {
			ps.Utilization = ps.BusySeconds / r.Makespan
		}
		r.Platforms = append(r.Platforms, ps)
	}
	return r
}

// Snapshot publishes the report as a deterministic metrics snapshot:
// serve.* counters and gauges plus a per-tier latency histogram. Byte-for-
// byte stable for a given config.
func (r *Report) Snapshot() metrics.Snapshot {
	reg := metrics.NewRegistry()
	reg.Counter("serve.requests").Store(int64(r.Requests))
	reg.Counter("serve.tenants").Store(int64(r.Tenants))
	reg.Counter("serve.seed").Store(r.Seed)
	reg.Counter("serve.served").Store(int64(r.Served))
	reg.Counter("serve.rejected").Store(int64(r.Rejected))
	reg.Counter("serve.timed_out").Store(int64(r.TimedOut))
	reg.Counter("serve.failed").Store(int64(r.Failed))
	reg.Gauge("serve.makespan_seconds").Set(r.Makespan)
	reg.Gauge("serve.goodput_gflops").Set(r.GoodputGFlops)
	for _, ts := range r.Tiers {
		pre := "serve.tier." + ts.Name
		reg.Counter(pre + ".tenants").Store(int64(ts.Tenants))
		reg.Counter(pre + ".requests").Store(int64(ts.Requests))
		reg.Counter(pre + ".served").Store(int64(ts.Served))
		reg.Counter(pre + ".batched").Store(int64(ts.Batched))
		reg.Counter(pre + ".rejected_quota").Store(int64(ts.RejectedQuota))
		reg.Counter(pre + ".rejected_queue").Store(int64(ts.RejectedQueue))
		reg.Counter(pre + ".timed_out").Store(int64(ts.TimedOut))
		reg.Counter(pre + ".failed").Store(int64(ts.Failed))
		reg.Gauge(pre + ".latency_p50").Set(ts.P50)
		reg.Gauge(pre + ".latency_p99").Set(ts.P99)
		reg.Gauge(pre + ".latency_p999").Set(ts.P999)
		h := metrics.NewHistogram(LatencyBuckets)
		for _, v := range ts.latencies {
			h.Observe(v)
		}
		reg.PutHistogram(pre+".latency_seconds", h)
	}
	for _, ps := range r.Platforms {
		pre := "serve.platform." + ps.Name
		reg.Counter(pre + ".served_units").Store(int64(ps.ServedUnits))
		reg.Counter(pre + ".fused_units").Store(int64(ps.FusedUnits))
		reg.Gauge(pre + ".busy_seconds").Set(ps.BusySeconds)
		reg.Gauge(pre + ".utilization").Set(ps.Utilization)
		reg.Gauge(pre + ".inflight_max").Set(float64(ps.InflightMax))
		reg.Gauge(pre + ".queue_depth_max").Set(float64(ps.QueueMax))
	}
	return reg.Snapshot()
}

// WriteJSON writes the snapshot form of the report; two runs of one config
// produce byte-identical output.
func (r *Report) WriteJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}

// WriteText renders the human-readable report.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "serve: %d requests from %d tenants, fleet [%s], %s arrivals (seed %d)\n",
		r.Requests, r.Tenants, strings.Join(r.Fleet, " "), r.Arrival, r.Seed)
	fmt.Fprintf(w, "  makespan %.3fs   goodput %.1f GFlop/s   served %d/%d (%.1f%%)   rejected %d   timed out %d   failed %d\n",
		r.Makespan, r.GoodputGFlops, r.Served, r.Requests,
		100*float64(r.Served)/float64(r.Requests), r.Rejected, r.TimedOut, r.Failed)
	fmt.Fprintf(w, "  %-10s %8s %8s %8s %9s %9s %8s %9s %9s %9s\n",
		"tier", "tenants", "reqs", "served", "rej_quota", "rej_queue", "timeout", "p50", "p99", "p999")
	for _, ts := range r.Tiers {
		fmt.Fprintf(w, "  %-10s %8d %8d %8d %9d %9d %8d %8.3fs %8.3fs %8.3fs\n",
			ts.Name, ts.Tenants, ts.Requests, ts.Served, ts.RejectedQuota, ts.RejectedQueue,
			ts.TimedOut, ts.P50, ts.P99, ts.P999)
	}
	fmt.Fprintf(w, "  %-10s %8s %8s %8s %9s %9s\n",
		"platform", "units", "fused", "busy", "util", "peak q")
	for _, ps := range r.Platforms {
		fmt.Fprintf(w, "  %-10s %8d %8d %7.2fs %8.1f%% %9d\n",
			ps.Name, ps.ServedUnits, ps.FusedUnits, ps.BusySeconds, 100*ps.Utilization, ps.QueueMax)
	}
}
