package device

import (
	"reflect"
	"testing"
	"testing/quick"

	"xkblas/internal/blasops"
	"xkblas/internal/metrics"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

func newDGX1() (*sim.Engine, *Platform) {
	eng := sim.NewEngine()
	return eng, NewPlatform(eng, topology.DGX1())
}

func TestPlatformConstruction(t *testing.T) {
	_, p := newDGX1()
	if len(p.GPUs) != 8 {
		t.Fatalf("GPUs = %d", len(p.GPUs))
	}
	for i, g := range p.GPUs {
		if g.Mem.Capacity() != 32<<30 {
			t.Errorf("GPU %d capacity = %d", i, g.Mem.Capacity())
		}
	}
}

func TestRouteKinds(t *testing.T) {
	_, p := newDGX1()
	// NVLink pair: single hop.
	if r := p.Route(0, 3); len(r) != 1 {
		t.Errorf("NVLink route 0->3 has %d hops, want 1", len(r))
	}
	// Host to GPU: engine + switch.
	if r := p.Route(topology.Host, 2); len(r) != 2 {
		t.Errorf("host route has %d hops, want 2", len(r))
	}
	// PCIe peer same socket, different switch (0 and 2 are on switches 0,1,
	// both socket 0): up + down.
	if r := p.Route(0, 6); len(r) != 3 {
		t.Errorf("cross-socket PCIe route 0->6 has %d hops, want 3 (up,qpi,down)", len(r))
	}
	// Local copy.
	if r := p.Route(5, 5); len(r) != 1 {
		t.Errorf("local route has %d hops, want 1", len(r))
	}
}

func TestTransferTimesReflectLinkClasses(t *testing.T) {
	eng, p := newDGX1()
	const bytes = 256 << 20 // 256 MiB
	var tNV2, tNV1, tPCIe, tHost sim.Time
	p.Transfer(0, 3, bytes, sim.JobFunc(func(_, en sim.Time) { tNV2 = en }))
	eng.Run()
	eng2 := sim.NewEngine()
	p2 := NewPlatform(eng2, topology.DGX1())
	p2.Transfer(0, 1, bytes, sim.JobFunc(func(_, en sim.Time) { tNV1 = en }))
	eng2.Run()
	eng3 := sim.NewEngine()
	p3 := NewPlatform(eng3, topology.DGX1())
	p3.Transfer(0, 5, bytes, sim.JobFunc(func(_, en sim.Time) { tPCIe = en }))
	eng3.Run()
	eng4 := sim.NewEngine()
	p4 := NewPlatform(eng4, topology.DGX1())
	p4.Transfer(topology.Host, 0, bytes, sim.JobFunc(func(_, en sim.Time) { tHost = en }))
	eng4.Run()

	if !(tNV2 < tNV1 && tNV1 < tPCIe && tPCIe < tHost) {
		t.Fatalf("transfer time ordering violated: NV2=%v NV1=%v PCIe=%v Host=%v",
			tNV2, tNV1, tPCIe, tHost)
	}
	// 256 MiB over ~96 GB/s ≈ 2.8 ms.
	if tNV2 < sim.Seconds(0.002) || tNV2 > sim.Seconds(0.004) {
		t.Errorf("NV2 transfer = %v, want ≈2.8ms", tNV2)
	}
}

func TestHostLinkSharedBySwitchPair(t *testing.T) {
	// GPUs 0 and 1 share PCIe switch 0: two concurrent H2D transfers must
	// contend; GPU 2 on switch 1 must not.
	eng, p := newDGX1()
	const bytes = 512 << 20
	var end0, end1, end2 sim.Time
	p.Transfer(topology.Host, 0, bytes, sim.JobFunc(func(_, en sim.Time) { end0 = en }))
	p.Transfer(topology.Host, 1, bytes, sim.JobFunc(func(_, en sim.Time) { end1 = en }))
	p.Transfer(topology.Host, 2, bytes, sim.JobFunc(func(_, en sim.Time) { end2 = en }))
	eng.Run()
	if end2 >= end1 {
		t.Fatalf("independent switch should be faster: end2=%v end1=%v", end2, end1)
	}
	if end1 <= end0 {
		t.Fatalf("shared switch should serialize: end0=%v end1=%v", end0, end1)
	}
}

func TestNVLinkPairsIndependent(t *testing.T) {
	eng, p := newDGX1()
	const bytes = 512 << 20
	var e1, e2 sim.Time
	p.Transfer(0, 3, bytes, sim.JobFunc(func(_, en sim.Time) { e1 = en }))
	p.Transfer(1, 2, bytes, sim.JobFunc(func(_, en sim.Time) { e2 = en }))
	eng.Run()
	if e1 != e2 {
		t.Fatalf("disjoint NVLink transfers should be concurrent: %v vs %v", e1, e2)
	}
}

func TestTransferEstimateMatchesUnloadedTransfer(t *testing.T) {
	eng, p := newDGX1()
	const bytes = 64 << 20
	est := p.TransferEstimate(0, 3, bytes)
	var actual sim.Time
	p.Transfer(0, 3, bytes, sim.JobFunc(func(st, en sim.Time) { actual = en - st }))
	eng.Run()
	diff := actual - est
	if diff < 0 {
		diff = -diff
	}
	if diff > sim.Microseconds(1) {
		t.Fatalf("estimate %v vs actual %v", est, actual)
	}
}

func TestKernelModelEfficiencyMonotone(t *testing.T) {
	m := DefaultKernelModel(7.8e12)
	prev := 0.0
	for _, b := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
		eff := m.Eff(blasops.Gemm, b, b, b)
		if eff <= prev {
			t.Fatalf("efficiency not monotone at %d: %g <= %g", b, eff, prev)
		}
		prev = eff
	}
	if e := m.Eff(blasops.Gemm, 2048, 2048, 2048); e < 0.90 || e > 0.97 {
		t.Fatalf("GEMM eff(2048) = %g, want ≈0.92 (paper: 91.2%% of peak)", e)
	}
	if m.Eff(blasops.Trsm, 2048, 2048, 2048) >= m.Eff(blasops.Gemm, 2048, 2048, 2048) {
		t.Fatal("TRSM tiles must be less efficient than GEMM tiles")
	}
}

func TestKernelTimeScale(t *testing.T) {
	m := DefaultKernelModel(7.8e12)
	flops := 2.0 * 2048 * 2048 * 2048
	tt := m.Time(blasops.Gemm, flops, 2048, 2048, 2048)
	// ≈ 17.2 Gflop / 7.17 Tflop/s ≈ 2.4 ms.
	if tt < sim.Seconds(0.002) || tt > sim.Seconds(0.003) {
		t.Fatalf("2048³ DGEMM tile = %v, want ≈2.4ms", tt)
	}
}

func TestKernelNoiseDeterministicAndBounded(t *testing.T) {
	run := func() []float64 {
		m := DefaultKernelModel(7.8e12)
		m.EnableNoise(0.02, 7)
		var out []float64
		for i := 0; i < 20; i++ {
			out = append(out, m.EffectiveFlops(blasops.Gemm, 1e9, 1024, 1024, 1024))
		}
		return out
	}
	a, b := run(), run()
	base := 1e9 / DefaultKernelModel(7.8e12).Eff(blasops.Gemm, 1024, 1024, 1024)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("noise not deterministic")
		}
		if a[i] < base*0.98 || a[i] > base*1.02 {
			t.Fatalf("noise out of ±2%%: %g vs base %g", a[i], base)
		}
	}
}

// TestKernelNoiseReseedMatchesFresh: re-arming noise on a model that
// already jittered restarts its generator in place, and the sequence
// matches a fresh model of the same seed; a zero amplitude disarms it.
func TestKernelNoiseReseedMatchesFresh(t *testing.T) {
	draw := func(m *KernelModel) []float64 {
		out := make([]float64, 50)
		for i := range out {
			out[i] = m.EffectiveFlops(blasops.Gemm, 1e9, 1024, 1024, 1024)
		}
		return out
	}
	reused := DefaultKernelModel(7.8e12)
	reused.EnableNoise(0.02, 3)
	draw(reused)
	rng := reused.rng
	for _, seed := range []int64{11, 3, 11} {
		fresh := DefaultKernelModel(7.8e12)
		fresh.EnableNoise(0.02, seed)
		reused.EnableNoise(0.02, seed)
		if reused.rng != rng {
			t.Fatal("EnableNoise replaced the generator instead of reseeding it")
		}
		if got, want := draw(reused), draw(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: reseeded jitter %v differs from fresh %v", seed, got[:3], want[:3])
		}
	}
	reused.EnableNoise(0, 11)
	base := DefaultKernelModel(7.8e12).EffectiveFlops(blasops.Gemm, 1e9, 1024, 1024, 1024)
	if got := reused.EffectiveFlops(blasops.Gemm, 1e9, 1024, 1024, 1024); got != base {
		t.Fatalf("zero amplitude left jitter on: %g vs %g", got, base)
	}
}

func TestMemPool(t *testing.T) {
	p := NewMemPool(100)
	if !p.Alloc(60) || p.Used() != 60 || p.Available() != 40 {
		t.Fatal("alloc bookkeeping broken")
	}
	if p.Alloc(50) {
		t.Fatal("overcommit allowed")
	}
	p.Free(60)
	if p.Used() != 0 {
		t.Fatal("free bookkeeping broken")
	}
}

func TestMemPoolBadFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMemPool(10).Free(1)
}

// Property: transfer estimates are monotone in payload size and symmetric
// routes have equal hop counts.
func TestTransferEstimateMonotoneProperty(t *testing.T) {
	_, p := newDGX1()
	f := func(sRaw, dRaw uint8, szRaw uint16) bool {
		src := topology.DeviceID(int(sRaw) % 8)
		dst := topology.DeviceID(int(dRaw) % 8)
		if src == dst {
			return true
		}
		small := int64(szRaw) + 1
		big := small * 3
		if p.TransferEstimate(src, dst, big) < p.TransferEstimate(src, dst, small) {
			return false
		}
		return len(p.Route(src, dst)) == len(p.Route(dst, src))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSummitHostLinkFasterThanDGX1(t *testing.T) {
	engA := sim.NewEngine()
	dgx := NewPlatform(engA, topology.DGX1())
	engB := sim.NewEngine()
	smt := NewPlatform(engB, topology.SummitNode())
	const bytes = 256 << 20
	if smt.TransferEstimate(topology.Host, 0, bytes) >= dgx.TransferEstimate(topology.Host, 0, bytes) {
		t.Fatal("Summit NVLink host link should beat DGX-1 PCIe host link")
	}
}

func TestFairShareLinkModel(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPlatformWithLinks(eng, topology.DGX1(), LinksFairShare)
	if p.Links != LinksFairShare {
		t.Fatal("link model not recorded")
	}
	// Two concurrent H2D transfers to GPUs on the same switch must share
	// the uplink and finish together (fair sharing), unlike FIFO where one
	// completes at half the makespan.
	const bytes = 512 << 20
	var e0, e1 sim.Time
	p.Transfer(topology.Host, 0, bytes, sim.JobFunc(func(_, en sim.Time) { e0 = en }))
	p.Transfer(topology.Host, 1, bytes, sim.JobFunc(func(_, en sim.Time) { e1 = en }))
	eng.Run()
	diff := float64(e0 - e1)
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-6 {
		t.Fatalf("fair-shared transfers should finish together: %v vs %v", e0, e1)
	}
	// And the shared makespan matches the FIFO aggregate.
	eng2 := sim.NewEngine()
	p2 := NewPlatform(eng2, topology.DGX1())
	var f0, f1 sim.Time
	p2.Transfer(topology.Host, 0, bytes, sim.JobFunc(func(_, en sim.Time) { f0 = en }))
	p2.Transfer(topology.Host, 1, bytes, sim.JobFunc(func(_, en sim.Time) { f1 = en }))
	eng2.Run()
	last := f0
	if f1 > last {
		last = f1
	}
	agg := float64(e0 - last)
	if agg < 0 {
		agg = -agg
	}
	if agg > float64(last)*0.05 {
		t.Fatalf("aggregate throughput should match FIFO: PS %v vs FIFO %v", e0, last)
	}
}

// TestPlatformMetricsPublication drives identical transfers on two fresh
// platforms and checks the published utilization metrics: per-resource
// counters exist, the class rollups aggregate them, and two identically
// driven platforms publish byte-equal snapshots (the determinism contract
// of the metrics layer).
func TestPlatformMetricsPublication(t *testing.T) {
	run := func() metrics.Snapshot {
		eng, p := newDGX1()
		p.Transfer(topology.Host, 0, 1<<20, nil) // H2D
		p.Transfer(0, 3, 1<<20, nil)             // NVLink peer
		p.Transfer(0, 5, 1<<20, nil)             // no NVLink: PCIe cross-socket (QPI)
		eng.Run()
		reg := metrics.NewRegistry()
		p.PublishMetrics(reg)
		// Publishing twice must not change anything (Store/Set semantics).
		p.PublishMetrics(reg)
		return reg.Snapshot()
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Fatal("identically driven platforms published different snapshots")
	}
	if s, ok := a.Get("res.gpu0.h2d.served"); !ok || s.Int != 1 {
		t.Fatalf("res.gpu0.h2d.served = %+v (%v), want 1", s, ok)
	}
	if s, ok := a.Get("class.h2d.bytes"); !ok || s.Float != 1<<20 {
		t.Fatalf("class.h2d.bytes = %+v (%v), want %d", s, ok, 1<<20)
	}
	if s, ok := a.Get("class.nvlink.bytes"); !ok || s.Float != 1<<20 {
		t.Fatalf("class.nvlink.bytes = %+v (%v), want %d", s, ok, 1<<20)
	}
	if s, ok := a.Get("class.qpi.bytes"); !ok || s.Float != 1<<20 {
		t.Fatalf("class.qpi.bytes = %+v (%v), want %d", s, ok, 1<<20)
	}
	if s, ok := a.Get("class.qpi.busy_seconds"); !ok || s.Float <= 0 {
		t.Fatalf("class.qpi.busy_seconds = %+v (%v), want > 0", s, ok)
	}
	// Nothing ran a kernel: the class exists with zero delivered work.
	if s, ok := a.Get("class.kernel.flops"); !ok || s.Float != 0 {
		t.Fatalf("class.kernel.flops = %+v (%v), want 0", s, ok)
	}
	// Every resource of the platform is tagged exactly once.
	if n := len(p0Resources(t)); n == 0 {
		t.Fatal("platform advertises no classed resources")
	}
}

// p0Resources asserts the classed-resource list is complete: 4 per-GPU
// resources, every NVLink, both directions of every PCIe switch, one QPI
// lane per socket, the pinner and the host BLAS server.
func p0Resources(t *testing.T) []ClassedResource {
	t.Helper()
	_, p := newDGX1()
	rs := p.Resources()
	want := 4*len(p.GPUs) + 2*p.Topo.NumPCIeSwitches() + p.Topo.NumSockets() + 2
	nvlinks := 0
	for _, cr := range rs {
		if cr.Class == ClassNVLink {
			nvlinks++
		}
		if cr.Res == nil {
			t.Fatalf("classed resource %v has nil resource", cr.Class)
		}
	}
	if len(rs) != want+nvlinks {
		t.Fatalf("resources = %d, want %d fixed + %d NVLinks", len(rs), want, nvlinks)
	}
	if nvlinks == 0 {
		t.Fatal("DGX-1 platform tagged no NVLink resources")
	}
	return rs
}
