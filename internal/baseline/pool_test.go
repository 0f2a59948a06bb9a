package baseline

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"xkblas/internal/blasops"
	"xkblas/internal/device"
	"xkblas/internal/policy"
	"xkblas/internal/topology"
	"xkblas/internal/xkrt"
)

// poolResult strips a Result to its comparable observables (the recorder
// pointer differs per run by construction).
func poolResult(r Result) interface{} {
	if r.Err != nil {
		return r.Err.Error()
	}
	return struct {
		A, B, C, D, E interface{}
	}{r.Elapsed, r.GFlops, r.Cache, r.Decisions, r.Metrics}
}

// freshPlatform returns a DGX-1 no idle context was built for: a request
// carrying it always builds a fresh context.
func freshPlatform() *topology.Platform { return topology.DGX1() }

// holdIdle makes the idle pool's behaviour predictable for the rest of
// the test: the collector is off, so the pool is not emptied between a run
// and the next, and one processor runs Go code, so the goroutine cannot
// move to another processor whose pool slot holds a context from an
// earlier test.
func holdIdle(t *testing.T) {
	gc := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
}

// peekIdle returns the context the next acquire on this goroutine would
// see, leaving it in the pool.
func peekIdle() *simContext {
	c, _ := idle.Get().(*simContext)
	if c != nil {
		idle.Put(c)
	}
	return c
}

// poolLeaf is one roster run: a library driver on a request over plat.
type poolLeaf struct {
	name string
	run  func(plat *topology.Platform) Result
}

// pressureLib keeps 0.3% of device memory (12 tiles of 1024²), so its
// caching runs evict at N = 4096: a recycled context that kept (or
// dropped) a reservation shows in their counters.
func pressureLib(name string, opts xkrt.Options) *StdLib {
	return &StdLib{LibName: name, Routines: allSix, Opts: opts, MemReserve: 0.997}
}

// poolRoster is the chain TestHandlePoolRunsBitIdentical walks: every
// driver, every policy axis and both reservations, ordered so each entry
// takes over a context its predecessor shaped differently (scheduler,
// evictor, source selector, windows, reservation, tile size, noise).
func poolRoster() []poolLeaf {
	std := func(lib Library, r blasops.Routine, n, nb int, scen Scenario, seed int64) poolLeaf {
		return poolLeaf{fmt.Sprintf("%s %v N=%d nb=%d %v", lib.Name(), r, n, nb, scen), func(p *topology.Platform) Result {
			return lib.Run(Request{Routine: r, N: n, NB: nb, Scenario: scen, Platform: p,
				NoiseAmp: 0.02, NoiseSeed: seed, Metrics: true})
		}}
	}
	xk := XKBlas().(*StdLib)
	return []poolLeaf{
		std(XKBlas(), blasops.Gemm, 4096, 1024, DataOnHost, 1),
		std(CuBLASXT(), blasops.Gemm, 4096, 1024, DataOnHost, 2),
		std(ChameleonTile(), blasops.Gemm, 4096, 1024, DataOnHost, 3),
		std(pressureLib("pressure-lru", xk.Opts), blasops.Gemm, 4096, 1024, DataOnHost, 4),
		std(pressureLib("pressure-streaming", CuBLASXT().(*StdLib).Opts), blasops.Gemm, 4096, 1024, DataOnHost, 5),
		std(XKBlas(), blasops.Gemm, 4096, 2048, DataOnDevice, 6),
		std(BLASX(), blasops.Gemm, 4096, 1024, DataOnHost, 7),
		std(pressureLib("pressure-dmdas", ChameleonTile().(*StdLib).Opts), blasops.Syr2k, 4096, 1024, DataOnHost, 8),
		std(Slate(), blasops.Gemm, 4096, 1024, DataOnHost, 9),
		std(CuBLASMG(), blasops.Gemm, 4096, 1024, DataOnHost, 10),
		std(ChameleonLAPACK(), blasops.Syrk, 4096, 1024, DataOnHost, 11),
		{"XKBlas batched", func(p *topology.Platform) Result {
			mixed := blasops.Batch{Routine: blasops.Gemm}
			for i := 0; i < 6; i++ {
				mixed.Instances = append(mixed.Instances,
					blasops.BatchInstance{M: 32, N: 32, K: 32}, blasops.BatchInstance{M: 1024, N: 1024, K: 1024})
			}
			return xk.RunBatched(Request{Routine: blasops.Gemm, NB: 512, Scenario: DataOnHost, Platform: p, Metrics: true},
				mixed, DispatchAuto)
		}},
		std(Slate(), blasops.Syrk, 4096, 1024, DataOnDevice, 12),
		{"XKBlas fused", func(p *topology.Platform) Result {
			return xk.RunFused(Request{Routine: blasops.Gemm, N: 1024, NB: 512, Scenario: DataOnHost, Platform: p,
				NoiseAmp: 0.02, NoiseSeed: 13, Metrics: true}, 4)
		}},
		{"Chameleon Tile composition", func(p *topology.Platform) Result {
			return ChameleonTile().(Composer).RunComposition(Request{N: 4096, NB: 1024, Platform: p,
				NoiseAmp: 0.02, NoiseSeed: 14, Metrics: true})
		}},
		std(XKBlasNoHeuristicNoTopo(), blasops.Trsm, 4096, 1024, DataOnHost, 15),
		std(DPLASMA(), blasops.Gemm, 4096, 1024, DataOnHost, 16),
		// XKBlas, BLASX and SLATE GEMM at both scenarios and both tile
		// sizes, each after a library of another reservation or driver.
		std(BLASX(), blasops.Gemm, 4096, 2048, DataOnDevice, 17),
		std(Slate(), blasops.Gemm, 4096, 1024, DataOnDevice, 18),
		std(XKBlas(), blasops.Gemm, 4096, 2048, DataOnHost, 19),
		std(BLASX(), blasops.Gemm, 4096, 1024, DataOnDevice, 20),
		std(Slate(), blasops.Gemm, 4096, 2048, DataOnHost, 21),
		std(XKBlas(), blasops.Gemm, 4096, 1024, DataOnDevice, 22),
		std(BLASX(), blasops.Gemm, 4096, 2048, DataOnHost, 23),
		std(Slate(), blasops.Gemm, 4096, 2048, DataOnDevice, 24),
		std(XKBlas(), blasops.Gemm, 4096, 1024, DataOnHost, 0),
	}
}

// TestHandlePoolRunsBitIdentical: a run on a recycled context must be byte-
// identical to a run on a fresh one — the contract that lets every library
// share baseline's one pool of idle contexts. Each roster entry runs on the
// context its predecessor (a differently configured library) left behind
// and must match a fresh build exactly: elapsed time, GFlop/s, cache
// statistics, decisions and the metrics snapshot. The roster covers every
// driver (standard, SLATE, cuBLAS-MG, Chameleon LAPACK, batched, fused,
// composition), every scheduler and evictor, BLASX's reservation and a
// heavier one under which runs evict, and XKBlas, BLASX and SLATE GEMM in
// both scenarios at both tile sizes.
func TestHandlePoolRunsBitIdentical(t *testing.T) {
	roster := poolRoster()
	fresh := make([]Result, len(roster))
	for i, leaf := range roster {
		fresh[i] = leaf.run(freshPlatform())
		if fresh[i].Err != nil {
			t.Fatalf("%s: fresh run failed: %v", leaf.name, fresh[i].Err)
		}
	}
	for i, leaf := range roster {
		if (strings.HasPrefix(leaf.name, "pressure-lru") || strings.HasPrefix(leaf.name, "pressure-dmdas")) &&
			fresh[i].Decisions.EvictClean == 0 {
			t.Fatalf("%s evicted nothing: the reservation is not exercised", leaf.name)
		}
	}

	holdIdle(t)
	plat := freshPlatform()
	var prev *simContext
	missed := 0
	for i, leaf := range roster {
		got := leaf.run(plat)
		if got.Err != nil {
			t.Fatalf("%s: recycled run failed: %v", leaf.name, got.Err)
		}
		if !reflect.DeepEqual(poolResult(got), poolResult(fresh[i])) {
			t.Errorf("%s after %s: recycled context diverged from a fresh one:\nrecycled %+v\nfresh    %+v",
				leaf.name, roster[max(i-1, 0)].name, poolResult(got), poolResult(fresh[i]))
		}
		cur := peekIdle()
		if i > 0 && cur != prev {
			missed++
		}
		prev = cur
	}
	if !raceEnabled && missed > 0 {
		t.Fatalf("%d of %d roster runs built a context instead of reusing their predecessor's", missed, len(roster)-1)
	}
}

// TestHandlePoolReleaseSemantics: failed runs and Check requests bypass the
// pool — a failed run may hold stranded tasks, and the coherence auditor is
// attached at build time only — and a reused context is retargeted to the
// request: tile size, options, reservation and noise.
func TestHandlePoolReleaseSemantics(t *testing.T) {
	holdIdle(t)
	plat := freshPlatform()
	req := Request{Platform: plat, NB: 512}
	xk := xkrt.Options{Window: 4, Policy: &policy.XKBlas}

	c := acquire(req, xk, 0)
	c.release(req, errors.New("boom"))
	if acquire(req, xk, 0) == c {
		t.Fatal("pool accepted a context from a failed run")
	}

	c = acquire(req, xk, 0)
	c.release(Request{Platform: plat, Check: true}, nil)
	if acquire(req, xk, 0) == c {
		t.Fatal("pool accepted a context from a Check run")
	}

	c = acquire(req, xk, 0)
	c.release(req, nil)
	if got := acquire(Request{Platform: plat, NB: 512, Check: true}, xk, 0); got == c {
		t.Fatal("pool served a context to a Check request")
	}
	if raceEnabled {
		return
	}
	chameleon := xkrt.Options{Window: 2, Policy: &chameleonBundle}
	got := acquire(Request{Platform: plat, NB: 1024, NoiseAmp: 0.02, NoiseSeed: 5, StreamWindow: 64}, chameleon, 0.45)
	if got != c {
		t.Fatal("pool did not serve the released context back")
	}
	h := got.h
	if h.NB != 1024 {
		t.Errorf("tile size not retargeted: NB=%d, want 1024", h.NB)
	}
	if h.RT.Opt.Window != 2 || h.RT.Opt.StreamWindow != 64 || h.RT.Policy().Scheduler != chameleonBundle.Scheduler {
		t.Errorf("options not retargeted: %+v, scheduler %s", h.RT.Opt, h.RT.Policy().Scheduler.Name())
	}
	want := int64(float64(plat.GPUSpecOf(0).MemoryBytes) * 0.55)
	if capacity := h.Plat.GPUs[0].Mem.Capacity(); capacity != want {
		t.Errorf("reservation not retargeted: capacity %d, want %d", capacity, want)
	}
	if h.Plat.Model.NoiseAmp != 0.02 {
		t.Errorf("noise not re-armed: amplitude %v", h.Plat.Model.NoiseAmp)
	}
}

// TestIdleContextKey: a context is reused only for the platform pointer
// and link model it was built for. A DGX-2 request never receives a DGX-1
// context, a fair-share request never a FIFO one, and the mismatched idle
// context is dropped rather than kept.
func TestIdleContextKey(t *testing.T) {
	holdIdle(t)
	dgx1, dgx2 := freshPlatform(), topology.DGX2()
	xk := xkrt.Options{Window: 4, Policy: &policy.XKBlas}
	for _, tc := range []struct {
		name     string
		from, to Request
	}{
		{"dgx1 to dgx2", Request{Platform: dgx1, NB: 1024}, Request{Platform: dgx2, NB: 1024}},
		{"dgx1 to default", Request{Platform: dgx1, NB: 1024}, Request{NB: 1024}},
		{"fifo to fair-share", Request{Platform: dgx1, NB: 1024}, Request{Platform: dgx1, NB: 1024, Links: device.LinksFairShare}},
		{"fair-share to fifo", Request{Platform: dgx1, NB: 1024, Links: device.LinksFairShare}, Request{Platform: dgx1, NB: 1024}},
	} {
		c := acquire(tc.from, xk, 0)
		c.release(tc.from, nil)
		got := acquire(tc.to, xk, 0)
		if got == c {
			t.Fatalf("%s: context reused across keys", tc.name)
		}
		want := tc.to.Platform
		if want == nil {
			want = got.h.Plat.Topo // built for the default DGX-1
		}
		if got.h.Plat.Topo != want || got.h.Plat.Links != tc.to.Links || got.plat != tc.to.Platform {
			t.Fatalf("%s: got a context for %s/%v", tc.name, got.h.Plat.Topo.Name, got.h.Plat.Links)
		}
		if peekIdle() == c {
			t.Fatalf("%s: the mismatched context stayed idle", tc.name)
		}
	}
}

// TestIdleContextsConcurrent runs the roster from several goroutines on one
// platform, so contexts pass between libraries in an unpredictable order,
// and checks every run against its fresh reference. make race runs it under
// the race detector.
func TestIdleContextsConcurrent(t *testing.T) {
	roster := poolRoster()
	fresh := make([]Result, len(roster))
	for i, leaf := range roster {
		fresh[i] = leaf.run(freshPlatform())
	}
	plat := freshPlatform()
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(roster))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range roster {
				i := (k + w*5) % len(roster)
				if got := roster[i].run(plat); !reflect.DeepEqual(poolResult(got), poolResult(fresh[i])) {
					errs <- fmt.Sprintf("worker %d, %s: diverged from a fresh context", w, roster[i].name)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// recycledLeafAllocBudget bounds the objects one recycled timing-mode leaf
// (XKBlas GEMM, N = 4096, nb = 1024, 64 tasks) allocates: the operand
// registration, the rebuilt metrics registry and the result, but none of
// the engine, platform, runtime or arena records a fresh context builds.
const recycledLeafAllocBudget = 150

// TestRecycledLeafAllocBudget: once a context is idle, a leaf of the same
// shape allocates only its per-run records. holdIdle keeps the pool from
// being emptied or bypassed mid-measurement; the race detector's random pool drops make the
// count meaningless, so it is only asserted without it (make bench-alloc).
func TestRecycledLeafAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	holdIdle(t)
	lib := XKBlas()
	req := Request{Routine: blasops.Gemm, N: 4096, NB: 1024, Scenario: DataOnHost,
		Platform: freshPlatform(), NoiseAmp: 0.02, NoiseSeed: 3}
	lib.Run(req)
	allocs := testing.AllocsPerRun(10, func() {
		if res := lib.Run(req); res.Err != nil {
			t.Fatal(res.Err)
		}
	})
	t.Logf("recycled leaf: %.0f objects", allocs)
	if allocs > recycledLeafAllocBudget {
		t.Fatalf("recycled leaf allocated %.0f objects, budget %d", allocs, recycledLeafAllocBudget)
	}
}
