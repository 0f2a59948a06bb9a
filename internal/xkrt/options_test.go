package xkrt

import (
	"strings"
	"testing"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/metrics"
	"xkblas/internal/policy"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("DefaultOptions rejected: %v", err)
	}
	cases := []struct {
		name string
		opt  Options
		want string // substring of the error
	}{
		{"zero-window", Options{}, "Window"},
		{"negative-window", Options{Window: -2}, "Window"},
		{"negative-grid", Options{Window: 4, GridP: -1, Policy: &policy.XKBlas}, "grid"},
		{"no-policy", Options{Window: 4}, "Policy"},
		{"incomplete-bundle", Options{Window: 4, Policy: &policy.Bundle{Source: policy.TopoRank{}}}, "Scheduler"},
	}
	for _, tc := range cases {
		err := tc.opt.Validate()
		if err == nil {
			t.Fatalf("%s: invalid options accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestNewPanicsOnInvalidOptions(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New accepted Window=0 without panicking")
		}
		if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "Window") {
			t.Fatalf("panic value %v does not carry the validation error", r)
		}
	}()
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	New(eng, plat, false, Options{Policy: &policy.NoHeuristic})
}

// TestDecisionCountersEndToEnd drives the optimistic-chain counters through
// the runtime's actual hit and miss paths and checks the transfer-class
// counters agree with the legacy stats.
func TestDecisionCountersEndToEnd(t *testing.T) {
	run := func(opt Options) (RuntimeStats, policy.Decisions) {
		rt := newRuntime(false, opt)
		n, nb := 128, 16
		A := rt.Register(matrix.NewShape(n, n), nb)
		B := rt.Register(matrix.NewShape(n, n), nb)
		C := rt.Register(matrix.NewShape(n, n), nb)
		nt := A.Rows()
		for i := 0; i < nt; i++ {
			for j := 0; j < nt; j++ {
				for k := 0; k < nt; k++ {
					spec := KernelSpec{Routine: blasops.Gemm, M: nb, N: nb, K: nb,
						Flops: 2 * float64(nb) * float64(nb) * float64(nb)}
					rt.Submit("gemm", spec, 0, R(A.Tile(i, k)), R(B.Tile(k, j)), RW(C.Tile(i, j)))
				}
			}
		}
		rt.Barrier()
		return rt.Stats(), rt.Decisions()
	}

	stats, d := run(Options{Window: 4, Policy: &policy.XKBlas})
	if d.ChainsTaken == 0 {
		t.Fatal("optimistic runtime never counted a chain hit")
	}
	if d.ChainsMissed == 0 {
		t.Fatal("first-touch fetches must count chain misses (no transfer in flight yet)")
	}
	// Every issued transfer is classified exactly once, so the link-class
	// counters must partition the legacy source totals.
	if d.SrcHost != stats.HostFallbacks {
		t.Fatalf("SrcHost %d != HostFallbacks %d", d.SrcHost, stats.HostFallbacks)
	}
	if peers := d.SrcNVLink2 + d.SrcNVLink1 + d.SrcPCIeP2P; peers != stats.PeerSources {
		t.Fatalf("peer-class sum %d != PeerSources %d", peers, stats.PeerSources)
	}
	if d.OwnerHits+d.Steals != stats.TasksRun {
		t.Fatalf("OwnerHits %d + Steals %d != TasksRun %d", d.OwnerHits, d.Steals, stats.TasksRun)
	}
	if d.Steals != stats.Steals {
		t.Fatalf("Steals %d != stats.Steals %d", d.Steals, stats.Steals)
	}

	_, dOff := run(Options{Window: 4, Policy: &policy.NoHeuristic})
	if dOff.ChainsTaken != 0 || dOff.ChainsMissed != 0 {
		t.Fatalf("non-optimistic runtime counted chains: %+v", dOff)
	}
}

// TestRuntimeMetricsCollection drives a small GEMM graph and checks the
// metrics surface end to end: the ready-queue/stall statistics accrue, the
// cache hit/miss counters fire, CollectMetrics is idempotent, and two
// identical runs snapshot byte-equal.
func TestRuntimeMetricsCollection(t *testing.T) {
	run := func() (RuntimeStats, cache.Stats, metrics.Snapshot) {
		rt := newRuntime(false, Options{Window: 4, Policy: &policy.XKBlas})
		n, nb := 128, 16
		A := rt.Register(matrix.NewShape(n, n), nb)
		B := rt.Register(matrix.NewShape(n, n), nb)
		C := rt.Register(matrix.NewShape(n, n), nb)
		nt := A.Rows()
		for i := 0; i < nt; i++ {
			for j := 0; j < nt; j++ {
				for k := 0; k < nt; k++ {
					spec := KernelSpec{Routine: blasops.Gemm, M: nb, N: nb, K: nb,
						Flops: 2 * float64(nb) * float64(nb) * float64(nb)}
					rt.Submit("gemm", spec, 0, R(A.Tile(i, k)), R(B.Tile(k, j)), RW(C.Tile(i, j)))
				}
			}
		}
		rt.Barrier()
		snap := rt.CollectMetrics()
		if again := rt.CollectMetrics(); !snap.Equal(again) {
			t.Fatal("CollectMetrics is not idempotent")
		}
		return rt.Stats(), rt.Cache.Stats(), snap
	}

	stats, cs, snap := run()
	if stats.ReadyQueueMax <= 0 {
		t.Fatal("ready-queue high-water never moved")
	}
	if stats.StallTime <= 0 {
		t.Fatal("a window-limited run must accrue stall time")
	}
	if cs.Hits == 0 || cs.Misses == 0 {
		t.Fatalf("cache hit/miss counters = %d/%d, want both > 0 (reused and first-touch tiles)", cs.Hits, cs.Misses)
	}
	for _, name := range []string{
		"rt.ready_queue_max", "rt.stall_time_seconds", "rt.tasks_run",
		"rt.stall_seconds.count", "cache.hits", "cache.misses",
		"policy.sched.owner_hits", "class.kernel.flops",
	} {
		if _, ok := snap.Get(name); !ok {
			t.Errorf("snapshot is missing %q", name)
		}
	}
	if s, _ := snap.Get("rt.stall_seconds.count"); s.Int != stats.TasksRun {
		t.Errorf("stall histogram count = %d, want one observation per task (%d)", s.Int, stats.TasksRun)
	}
	if s, _ := snap.Get("cache.hits"); s.Int != cs.Hits {
		t.Errorf("published cache.hits %d != stats %d", s.Int, cs.Hits)
	}

	_, _, snap2 := run()
	if !snap.Equal(snap2) {
		t.Fatal("identical runs produced different metrics snapshots")
	}
}
