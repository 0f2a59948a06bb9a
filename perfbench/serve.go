package main

import (
	"fmt"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
	"xkblas/internal/serve"
	"xkblas/internal/topology"
)

// serve-replay: serve.Run with the default tiers, traffic mix (fused and
// batched kinds included) and dgx1+dgx2 fleet; bursty open-loop arrivals at
// the default 300 req/s in virtual time, reject backpressure, and many more
// requests than the default so the tail percentiles are stable.
const serveRequests = 200000

// serveAuditRequests is the reduced request count of the audited replay.
const serveAuditRequests = 5000

type serveRun struct {
	cfg serve.Config
}

func setupServe(seed int64, tr *tracer) (runner, error) {
	cfg := serve.Defaults()
	cfg.Requests = serveRequests
	cfg.Seed = seed
	cfg.Parallel = 1
	id := tr.begin("topology.Build")
	for _, name := range cfg.Fleet {
		if _, ok := topology.Lookup(name); !ok {
			return nil, fmt.Errorf("fleet platform %q is not registered", name)
		}
	}
	tr.end(id)
	// serve.Run regenerates this trace from the config; set-up generates it
	// once to time the generator and check that the replay carries the
	// fused and batched request kinds.
	id = tr.begin("serve.GenerateTrace")
	trace := serve.GenerateTrace(&cfg)
	tr.end(id)
	var fusable, batched int
	for _, a := range trace {
		switch {
		case a.Spec.Count > 1:
			batched++
		case a.Spec.N < cfg.BatchThresholdN:
			fusable++
		}
	}
	if fusable == 0 || batched == 0 {
		return nil, fmt.Errorf("trace of %d requests has %d fusable and %d batched requests", len(trace), fusable, batched)
	}
	return &serveRun{cfg: cfg}, nil
}

func (s *serveRun) iterate(tr *tracer) outcome {
	out := outcome{attempted: s.cfg.Requests, work: float64(s.cfg.Requests)}
	id := tr.begin("serve.Run")
	rep, err := serve.Run(s.cfg)
	tr.end(id)
	if err != nil {
		out.failed = s.cfg.Requests
		out.problems = append(out.problems, fmt.Sprintf("serve.Run: %v", err))
		return out
	}
	if rep.Failed > 0 {
		out.failed = rep.Failed
		out.problems = append(out.problems, fmt.Sprintf("%d requests failed in their inner simulation", rep.Failed))
	}
	// The worst tier's percentiles, each with that tier's served count.
	var p50, p99 serve.TierStats
	for _, t := range rep.Tiers {
		if t.P50 > p50.P50 {
			p50 = t
		}
		if t.P99 > p99.P99 {
			p99 = t
		}
	}
	out.model = model{
		TFlops:     rep.GoodputGFlops / 1000,
		ServedFrac: float64(rep.Served) / float64(s.cfg.Requests),
		P50:        p50.P50,
		P99:        p99.P99,
		P50N:       p50.Served,
		P99N:       p99.Served,
		LatNote:    fmt.Sprintf("served requests of the worst tier: p50 %s, p99 %s", p50.Name, p99.Name),
	}
	if tr != nil {
		out.layer = s.layer(tr, rep)
	}
	return out
}

// layer reads the serving layer's counters from the report. The dispatch
// counts come from running one request of each batched kind on each fleet
// platform, as the demand table does: serve.Report does not carry them.
func (s *serveRun) layer(tr *tracer, rep *serve.Report) map[string]float64 {
	m := map[string]float64{"serve.served": float64(rep.Served), "serve.timed_out": float64(rep.TimedOut)}
	for _, t := range rep.Tiers {
		m["serve.rejected_quota"] += float64(t.RejectedQuota)
		m["serve.rejected_queue"] += float64(t.RejectedQueue)
		m["serve."+t.Name+".p99_s"] = t.P99
	}
	for _, p := range rep.Platforms {
		m["serve.fused_units"] += float64(p.FusedUnits)
		m["serve."+p.Name+".util"] = p.Utilization
	}
	id := tr.begin(replicaSpan)
	defer tr.end(id)
	lib := baseline.XKBlas().(*baseline.StdLib)
	var c simCounts
	for _, e := range s.cfg.Mix {
		if e.Spec.Count <= 1 {
			continue
		}
		for _, name := range s.cfg.Fleet {
			plat, _ := topology.Lookup(name)
			req := baseline.Request{Routine: e.Spec.Routine, N: e.Spec.N, NB: e.Spec.NB, Platform: plat}
			batch := blasops.UniformBatch(e.Spec.Routine, e.Spec.Count, e.Spec.N, e.Spec.N, e.Spec.N)
			c.addResult(lib.RunBatched(req, batch, baseline.DispatchAuto))
		}
	}
	m["policy.dispatch_host"] = float64(c.dec.DispatchHost)
	m["policy.dispatch_device"] = float64(c.dec.DispatchDevice)
	return m
}

// audit replays a shorter trace with every inner simulation audited.
func (s *serveRun) audit() error {
	cfg := s.cfg
	cfg.Requests = serveAuditRequests
	cfg.Check = true
	rep, err := serve.Run(cfg)
	if err != nil {
		return err
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d of %d audited requests failed", rep.Failed, cfg.Requests)
	}
	return nil
}
