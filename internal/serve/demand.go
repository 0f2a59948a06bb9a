package serve

import (
	"fmt"
	"sync"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
	"xkblas/internal/topology"
)

// demandKey identifies one service-demand measurement: a request shape (or
// a fused batch of count instances of it) on one fleet platform.
type demandKey struct {
	platform int
	spec     RequestSpec
	count    int
}

// demand is a memoized inner-simulation result: the virtual makespan of
// running the keyed DAG alone on the keyed platform, and its useful flops.
type demand struct {
	seconds float64
	flops   float64
	err     error
}

// demandTable memoizes service demands. Each demand is a pure function of
// its key — the inner simulation is deterministic, and a recycled library
// context is bit-identical to a fresh one — so the table can be prewarmed
// by parallel workers in any completion order without changing a value.
type demandTable struct {
	cfg   *Config
	lib   *baseline.StdLib
	topos []*topology.Platform

	mu sync.Mutex
	m  map[demandKey]demand
}

func newDemandTable(cfg *Config) *demandTable {
	dt := &demandTable{
		cfg:   cfg,
		lib:   baseline.XKBlas().(*baseline.StdLib),
		topos: make([]*topology.Platform, len(cfg.Fleet)),
		m:     make(map[demandKey]demand),
	}
	for i, name := range cfg.Fleet {
		topo, ok := topology.Lookup(name)
		if !ok {
			panic(fmt.Sprintf("serve: fleet platform %q vanished from registry", name))
		}
		dt.topos[i] = topo
	}
	return dt
}

// get returns the memoized demand, measuring on a miss.
func (d *demandTable) get(k demandKey) demand {
	d.mu.Lock()
	v, ok := d.m[k]
	d.mu.Unlock()
	if ok {
		return v
	}
	v = d.measure(k)
	d.mu.Lock()
	d.m[k] = v
	d.mu.Unlock()
	return v
}

// measure runs the inner simulation for one key. Batched specs (Count > 1)
// route through RunBatched under the model-derived dispatch crossover;
// fused coalesced batches through RunFused; singletons through the
// standard protocol (a fused batch of one is pinned to be identical).
func (d *demandTable) measure(k demandKey) demand {
	req := baseline.Request{
		Routine:  k.spec.Routine,
		N:        k.spec.N,
		NB:       k.spec.NB,
		Scenario: baseline.DataOnHost,
		Platform: d.topos[k.platform],
		Check:    d.cfg.Check,
		Ctx:      d.cfg.Ctx,
	}
	var res baseline.Result
	switch {
	case k.spec.Count > 1:
		res = d.lib.RunBatched(req,
			blasops.UniformBatch(k.spec.Routine, k.spec.Count, k.spec.N, k.spec.N, k.spec.N),
			baseline.DispatchAuto)
	case k.count == 1:
		res = d.lib.Run(req)
	default:
		res = d.lib.RunFused(req, k.count)
	}
	if res.Err != nil {
		return demand{err: res.Err}
	}
	instances := k.count
	if k.spec.Count > 1 {
		instances = k.count * k.spec.Count
	}
	return demand{
		seconds: float64(res.Elapsed),
		flops:   float64(instances) * blasops.FlopsSquare(k.spec.Routine, k.spec.N),
	}
}

// prewarm measures every singleton demand the trace can need, fanned out
// over cfg.Parallel workers. Fused-batch demands (whose counts depend on
// replay dynamics) fill in lazily during the replay; prewarming the
// singletons moves the bulk of inner-simulation wall-clock off the
// sequential event loop. Worker count and scheduling order cannot affect a
// measured value, only how fast the table fills.
func (d *demandTable) prewarm(trace []Arrival) error {
	seen := make(map[RequestSpec]struct{})
	var specs []RequestSpec
	for _, a := range trace {
		if _, ok := seen[a.Spec]; !ok {
			seen[a.Spec] = struct{}{}
			specs = append(specs, a.Spec)
		}
	}
	sortSpecs(specs)

	var keys []demandKey
	for p := range d.cfg.Fleet {
		for _, spec := range specs {
			keys = append(keys, demandKey{platform: p, spec: spec, count: 1})
		}
	}

	workers := d.cfg.Parallel
	if workers > len(keys) {
		workers = len(keys)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan demandKey)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				d.get(k)
			}
		}()
	}
	for _, k := range keys {
		if err := d.cfg.ctxErr(); err != nil {
			break
		}
		next <- k
	}
	close(next)
	wg.Wait()

	if err := d.cfg.ctxErr(); err != nil {
		return err
	}
	// Surface measurement failures now, in the deterministic key order,
	// rather than as per-request OutcomeFailed noise during the replay.
	for _, k := range keys {
		if v := d.get(k); v.err != nil {
			return fmt.Errorf("serve: measuring %v on %s: %w", k.spec, d.cfg.Fleet[k.platform], v.err)
		}
	}
	return nil
}
