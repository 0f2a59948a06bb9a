package xkrt

import (
	"math/rand"
	"testing"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/device"
	"xkblas/internal/hostblas"
	"xkblas/internal/matrix"
	"xkblas/internal/policy"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// waiterFunc adapts a closure to cache.Waiter.
type waiterFunc func(err error)

func (f waiterFunc) Arrived(_ *cache.Tile, _ topology.DeviceID, err error) { f(err) }

// notify adapts a closure that ignores the outcome to cache.Waiter.
func notify(fn func()) cache.Waiter { return waiterFunc(func(error) { fn() }) }

func newRuntime(functional bool, opt Options) *Runtime {
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	return New(eng, plat, functional, opt)
}

// gemmSpec builds a functional tile-GEMM kernel: bufs are (A, B, C).
func gemmSpec(nb int) KernelSpec {
	return KernelSpec{
		Routine: blasops.Gemm,
		M:       nb, N: nb, K: nb,
		Flops: 2 * float64(nb) * float64(nb) * float64(nb),
		Body: func(bufs []matrix.View) {
			hostblas.Gemm(hostblas.NoTrans, hostblas.NoTrans, 1, bufs[0], bufs[1], 1, bufs[2])
		},
	}
}

func TestSingleTaskEndToEnd(t *testing.T) {
	rt := newRuntime(true, DefaultOptions())
	rng := rand.New(rand.NewSource(1))
	const nb = 16
	av, bv, cv := matrix.New(nb, nb), matrix.New(nb, nb), matrix.New(nb, nb)
	av.FillRandom(rng)
	bv.FillRandom(rng)
	cv.FillRandom(rng)
	want := cv.Clone()
	hostblas.Gemm(hostblas.NoTrans, hostblas.NoTrans, 1, av, bv, 1, want)

	A, B, C := rt.Register(av, nb), rt.Register(bv, nb), rt.Register(cv, nb)
	rt.Submit("gemm", gemmSpec(nb), 0, R(A.Tile(0, 0)), R(B.Tile(0, 0)), RW(C.Tile(0, 0)))
	rt.SubmitFlush(C.Tile(0, 0))
	end := rt.Barrier()
	if end <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if d := matrix.MaxAbsDiff(cv, want); d > 1e-12 {
		t.Fatalf("result differs by %g", d)
	}
	st := rt.Stats()
	if st.TasksRun != 2 {
		t.Fatalf("tasks run = %d, want 2", st.TasksRun)
	}
}

func TestDependencyChainSerializes(t *testing.T) {
	// Two accumulations into the same C tile must run in submission order
	// (RW chain), even on different home devices.
	rt := newRuntime(true, DefaultOptions())
	rng := rand.New(rand.NewSource(2))
	const nb = 8
	a1, a2 := matrix.New(nb, nb), matrix.New(nb, nb)
	b1, b2 := matrix.New(nb, nb), matrix.New(nb, nb)
	cv := matrix.New(nb, nb)
	for _, v := range []matrix.View{a1, a2, b1, b2, cv} {
		v.FillRandom(rng)
	}
	want := cv.Clone()
	hostblas.Gemm(hostblas.NoTrans, hostblas.NoTrans, 1, a1, b1, 1, want)
	hostblas.Gemm(hostblas.NoTrans, hostblas.NoTrans, 1, a2, b2, 1, want)

	A1, A2 := rt.Register(a1, nb), rt.Register(a2, nb)
	B1, B2 := rt.Register(b1, nb), rt.Register(b2, nb)
	C := rt.Register(cv, nb)
	rt.Submit("g1", gemmSpec(nb), 0, R(A1.Tile(0, 0)), R(B1.Tile(0, 0)), RW(C.Tile(0, 0)))
	rt.Submit("g2", gemmSpec(nb), 0, R(A2.Tile(0, 0)), R(B2.Tile(0, 0)), RW(C.Tile(0, 0)))
	rt.SubmitFlush(C.Tile(0, 0))
	rt.Barrier()
	if d := matrix.MaxAbsDiff(cv, want); d > 1e-12 {
		t.Fatalf("RW chain broken: diff %g", d)
	}
}

// buildManyTasks submits an nt×nt tile GEMM C += A·B in functional mode and
// returns the runtime plus expected result.
func buildTiledGemm(t *testing.T, opt Options, n, nb int, seed int64) (rt *Runtime, cv, want matrix.View) {
	t.Helper()
	rt = newRuntime(true, opt)
	rng := rand.New(rand.NewSource(seed))
	av, bv := matrix.New(n, n), matrix.New(n, n)
	cv = matrix.New(n, n)
	av.FillRandom(rng)
	bv.FillRandom(rng)
	cv.FillRandom(rng)
	want = cv.Clone()
	hostblas.Gemm(hostblas.NoTrans, hostblas.NoTrans, 1, av, bv, 1, want)
	A, B, C := rt.Register(av, nb), rt.Register(bv, nb), rt.Register(cv, nb)
	nt := A.Rows()
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			for k := 0; k < nt; k++ {
				m1, _ := A.Til.TileDims(i, k)
				_, n1 := B.Til.TileDims(k, j)
				k1, _ := B.Til.TileDims(k, j)
				spec := KernelSpec{
					Routine: blasops.Gemm,
					M:       m1, N: n1, K: k1,
					Flops: 2 * float64(m1) * float64(n1) * float64(k1),
					Body: func(bufs []matrix.View) {
						hostblas.Gemm(hostblas.NoTrans, hostblas.NoTrans, 1, bufs[0], bufs[1], 1, bufs[2])
					},
				}
				rt.Submit("gemm", spec, 0, R(A.Tile(i, k)), R(B.Tile(k, j)), RW(C.Tile(i, j)))
			}
		}
	}
	for i := 0; i < C.Rows(); i++ {
		for j := 0; j < C.Cols(); j++ {
			rt.SubmitFlush(C.Tile(i, j))
		}
	}
	return rt, cv, want
}

func TestTiledGemmAllHeuristicConfigs(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opt  Options
	}{
		{"full", Options{Window: 4, Policy: &policy.XKBlas}},
		{"no-heuristic", Options{Window: 4, Policy: &policy.NoHeuristic}},
		{"no-heuristic-no-topo", Options{Window: 4, Policy: &policy.NoHeuristicNoTopo}},
		{"dmdas", Options{Window: 4, Policy: &policy.XKBlasDMDAS}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			rt, cv, want := buildTiledGemm(t, cfg.opt, 48, 16, 7)
			rt.Barrier()
			if d := matrix.MaxAbsDiff(cv, want); d > 1e-11 {
				t.Fatalf("%s: diff %g", cfg.name, d)
			}
		})
	}
}

func TestOptimisticHeuristicChainsTransfers(t *testing.T) {
	// With many consumers of the same host tile across GPUs, the
	// optimistic heuristic must produce chained device-to-device hops and
	// strictly fewer host reads than the disabled configuration.
	build := func(opt Options) RuntimeStats {
		rt := newRuntime(false, opt)
		n, nb := 128, 16 // 8x8 tiles, shape-only
		av := matrix.NewShape(n, n)
		bv := matrix.NewShape(n, n)
		cv := matrix.NewShape(n, n)
		A, B, C := rt.Register(av, nb), rt.Register(bv, nb), rt.Register(cv, nb)
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
		return rt.Stats()
	}
	on := build(Options{Window: 4, Policy: &policy.XKBlas})
	off := build(Options{Window: 4, Policy: &policy.NoHeuristic})
	if on.ChainedHops == 0 {
		t.Fatal("optimistic heuristic never chained a transfer")
	}
	if off.ChainedHops != 0 {
		t.Fatal("disabled heuristic still chained")
	}
	if on.HostFallbacks >= off.HostFallbacks {
		t.Fatalf("optimistic should reduce host reads: on=%d off=%d",
			on.HostFallbacks, off.HostFallbacks)
	}
}

func TestTopoAwarePicksBestLink(t *testing.T) {
	rt := newRuntime(false, Options{Window: 4, Policy: &policy.XKBlas})
	v := matrix.NewShape(16, 16)
	M := rt.Register(v, 16)
	tile := M.Tile(0, 0)
	// Replicate on GPUs 1 (NVLink1 to 0) and 3 (NVLink2 to 0); a consumer
	// on 0 must pick 3.
	for _, d := range []topology.DeviceID{1, 3} {
		rt.SubmitPrefetch(tile, d)
	}
	rt.Barrier()
	src, chained := rt.selectSource(tile, 0)
	if chained || src != 3 {
		t.Fatalf("selectSource = (%d, %v), want (3, false): 2xNVLink beats 1xNVLink", src, chained)
	}
	// Without topology awareness the pick is arbitrary (lowest id).
	src2, _, ok := policy.SelectSource(policy.LowestID{}, rt.Plat.Topo, tile, 0, nil)
	if !ok || src2 != 1 {
		t.Fatalf("no-topo pick = %d, want 1 (lowest id)", src2)
	}
}

func TestSelectSourceHostWhenNoReplicas(t *testing.T) {
	rt := newRuntime(false, DefaultOptions())
	M := rt.Register(matrix.NewShape(16, 16), 16)
	src, chained := rt.selectSource(M.Tile(0, 0), 2)
	if chained || src != topology.Host {
		t.Fatalf("want host source, got (%d,%v)", src, chained)
	}
}

func TestSelectSourceDirtyReplica(t *testing.T) {
	rt := newRuntime(true, DefaultOptions())
	rng := rand.New(rand.NewSource(3))
	cv := matrix.New(8, 8)
	cv.FillRandom(rng)
	C := rt.Register(cv, 8)
	spec := KernelSpec{Routine: blasops.Gemm, M: 8, N: 8, K: 8, Flops: 1024,
		Body: func(bufs []matrix.View) { bufs[0].Set(0, 0, 42) }}
	rt.Submit("touch", spec, 0, RW(C.Tile(0, 0)))
	rt.Barrier()
	tile := C.Tile(0, 0)
	dirty := tile.DirtyOn()
	if dirty < 0 {
		t.Fatal("tile should be dirty on its home device")
	}
	other := topology.DeviceID((int(dirty) + 1) % 8)
	src, chained := rt.selectSource(tile, other)
	if chained || src != dirty {
		t.Fatalf("dirty source = (%d,%v), want (%d,false)", src, chained, dirty)
	}
}

func TestWorkStealingBalancesLoad(t *testing.T) {
	// All output tiles owned by GPU 0; stealing must spread the work.
	rt := newRuntime(false, DefaultOptions())
	n, nb := 256, 16
	A := rt.Register(matrix.NewShape(n, n), nb)
	C := rt.Register(matrix.NewShape(n, n), nb)
	for i := 0; i < C.Rows(); i++ {
		for j := 0; j < C.Cols(); j++ {
			C.Tile(i, j).Owner = 0 // force a pathological mapping
			spec := KernelSpec{Routine: blasops.Gemm, M: nb, N: nb, K: nb,
				Flops: 2 * 16 * 16 * 16}
			rt.Submit("g", spec, 0, R(A.Tile(i, j)), RW(C.Tile(i, j)))
		}
	}
	rt.Barrier()
	if rt.Stats().Steals == 0 {
		t.Fatal("no steals despite single-owner mapping")
	}
}

func TestPipelineOverlapsTransfersWithKernels(t *testing.T) {
	// With window=1 the device alternates fetch→compute; with a deeper
	// window the next task's transfers overlap the current kernel, so the
	// makespan must shrink for a transfer-heavy workload.
	run := func(window int) sim.Time {
		rt := newRuntime(false, Options{Window: window, Policy: &policy.XKBlas})
		// Kernel-dominant workload (kernel ≈ 2.4ms, fetch ≈ 0.7ms): with
		// window=1 each device serializes fetch→kernel; a deeper window
		// hides the fetches behind the previous kernel.
		n, nb := 8192, 1024
		A := rt.Register(matrix.NewShape(n, n), nb)
		C := rt.Register(matrix.NewShape(n, n), nb)
		for i := 0; i < C.Rows(); i++ {
			for j := 0; j < C.Cols(); j++ {
				C.Tile(i, j).Owner = topology.DeviceID((i*C.Cols() + j) % 8)
				spec := KernelSpec{Routine: blasops.Gemm, M: 2048, N: 2048, K: 2048,
					Flops: 2 * 2048 * 2048 * 2048}
				rt.Submit("g", spec, 0, R(A.Tile(i, j)), W(C.Tile(i, j)))
			}
		}
		return rt.Barrier()
	}
	if deep, shallow := run(4), run(1); deep >= shallow {
		t.Fatalf("window=4 (%v) should beat window=1 (%v)", deep, shallow)
	}
}

func TestPrefetchDistributesAndSetsOwner(t *testing.T) {
	rt := newRuntime(false, DefaultOptions())
	M := rt.Register(matrix.NewShape(64, 64), 16)
	dist := matrix.NewDist2D(4, 2, 1, 1)
	for i := 0; i < M.Rows(); i++ {
		for j := 0; j < M.Cols(); j++ {
			rt.SubmitPrefetch(M.Tile(i, j), topology.DeviceID(dist.OwnerOf(i, j)))
		}
	}
	rt.Barrier()
	for i := 0; i < M.Rows(); i++ {
		for j := 0; j < M.Cols(); j++ {
			want := topology.DeviceID(dist.OwnerOf(i, j))
			tl := M.Tile(i, j)
			if !tl.ValidOn(want) {
				t.Fatalf("tile (%d,%d) not resident on %d", i, j, want)
			}
			if tl.Owner != want {
				t.Fatalf("tile (%d,%d) owner = %d, want %d", i, j, tl.Owner, want)
			}
		}
	}
}

func TestBarrierIsDeterministic(t *testing.T) {
	run := func() (sim.Time, RuntimeStats) {
		rt, _, _ := buildTiledGemm(t, DefaultOptions(), 64, 16, 11)
		return rt.Barrier(), rt.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic: %v/%+v vs %v/%+v", t1, s1, t2, s2)
	}
}

func TestDefaultGrid(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {2, 1}, 4: {2, 2}, 6: {3, 2}, 8: {4, 2}}
	for n, want := range cases {
		p, q := defaultGrid(n)
		if p != want[0] || q != want[1] {
			t.Errorf("defaultGrid(%d) = (%d,%d), want %v", n, p, q, want)
		}
	}
}

func TestFlushWaitsForWriter(t *testing.T) {
	rt := newRuntime(true, DefaultOptions())
	cv := matrix.New(8, 8)
	C := rt.Register(cv, 8)
	spec := KernelSpec{Routine: blasops.Gemm, M: 8, N: 8, K: 8, Flops: 1e6,
		Body: func(bufs []matrix.View) { bufs[0].Set(3, 3, 77) }}
	rt.Submit("w", spec, 0, RW(C.Tile(0, 0)))
	rt.SubmitFlush(C.Tile(0, 0))
	rt.Barrier()
	if cv.At(3, 3) != 77 {
		t.Fatal("flush ran before writer or lost data")
	}
	if !C.Tile(0, 0).HostValid() {
		t.Fatal("host not coherent after flush")
	}
}

func TestDMDASPriorityOrdering(t *testing.T) {
	// Independent tasks with distinct priorities all target one device
	// (single-GPU platform): execution must follow priority order.
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1WithGPUs(1))
	rt := New(eng, plat, true, Options{Window: 1, Policy: &policy.XKBlasDMDAS})
	var order []int
	mk := func(prio int) {
		m := rt.Register(matrix.New(8, 8), 8)
		spec := KernelSpec{Routine: blasops.Gemm, M: 8, N: 8, K: 8, Flops: 1e6,
			Body: func([]matrix.View) { order = append(order, prio) }}
		rt.Submit("p", spec, prio, RW(m.Tile(0, 0)))
	}
	for _, p := range []int{1, 5, 3, 9, 7} {
		mk(p)
	}
	rt.Barrier()
	if len(order) != 5 {
		t.Fatalf("ran %d tasks", len(order))
	}
	// The first task may start before later submissions arrive (window 1
	// admits it immediately); every subsequent pick must be the highest
	// remaining priority.
	for i := 2; i < len(order); i++ {
		if order[i] > order[i-1] {
			t.Fatalf("priority inversion at %d: %v", i, order)
		}
	}
}

func TestPrefetchToDeviceAlreadyHoldingTile(t *testing.T) {
	rt := newRuntime(false, DefaultOptions())
	M := rt.Register(matrix.NewShape(16, 16), 16)
	rt.SubmitPrefetch(M.Tile(0, 0), 2)
	rt.Barrier()
	// Second prefetch to the same device must complete as a no-op.
	rt.SubmitPrefetch(M.Tile(0, 0), 2)
	rt.Barrier()
	if !M.Tile(0, 0).ValidOn(2) {
		t.Fatal("tile not resident")
	}
	if rt.Cache.Stats().H2DCount != 1 {
		t.Fatalf("duplicate prefetch issued a transfer: %+v", rt.Cache.Stats())
	}
}

func TestFlushOfNeverWrittenTileIsImmediate(t *testing.T) {
	rt := newRuntime(false, DefaultOptions())
	M := rt.Register(matrix.NewShape(16, 16), 16)
	rt.SubmitFlush(M.Tile(0, 0))
	end := rt.Barrier()
	if end != 0 {
		t.Fatalf("flush of coherent tile should take no virtual time, took %v", end)
	}
	if rt.Cache.Stats().D2HCount != 0 {
		t.Fatal("needless D2H issued")
	}
}
