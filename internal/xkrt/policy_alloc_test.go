package xkrt

import (
	"testing"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/policy"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// Allocation gate and per-layer benchmarks for the policy layer's tile
// queries. DMDAS reads every operand's replica sets for every device on
// every ready task, and source selection reads them on every fetch, so
// both must run without touching the heap. They run here, on the runtime's
// own scheduler-state adapter, against real cache tiles.

// tileQuerySelectors are the selectors the gate drives: the paper's ranked
// peer choice, BLASX's same-switch filter and the optimistic chain.
var tileQuerySelectors = []policy.SourceSelector{
	policy.TopoRank{},
	policy.SameSwitch{Base: policy.TopoRank{}},
	policy.Optimistic{Base: policy.TopoRank{}},
}

// policyRig holds a DGX-1 runtime with two tiles in a fixed replica state
// and one unsubmitted GEMM task over them.
type policyRig struct {
	rt    *Runtime
	tiles []*cache.Tile
	task  *Task
}

// newPolicyRig builds the rig. Tile a is valid on GPUs 1, 3 and 5 with a
// transfer still in flight to GPU 6; tile b is valid on the host only with
// a transfer in flight to GPU 2, which the optimistic selector chains on.
// The task reads a and b and accumulates into a third tile.
func newPolicyRig(tb testing.TB) *policyRig {
	tb.Helper()
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	rt := New(eng, plat, false, DefaultOptions())
	const nb = 256
	m := rt.Register(matrix.NewShape(3*nb, nb), nb)
	a, b, c := m.Tile(0, 0), m.Tile(1, 0), m.Tile(2, 0)
	fetch := func(tl *cache.Tile, dst topology.DeviceID) {
		if err := rt.Cache.StartTransfer(tl, topology.Host, dst, nil); err != nil {
			tb.Fatal(err)
		}
	}
	for _, d := range []topology.DeviceID{1, 3, 5} {
		fetch(a, d)
	}
	eng.Run()
	fetch(a, 6)
	fetch(b, 2)
	if a.ValidGPUs() != 1<<1|1<<3|1<<5 || a.InflightDsts() != 1<<6 ||
		!b.ValidGPUs().Empty() || b.InflightDsts() != 1<<2 {
		tb.Fatal("policy rig: tiles are not in the intended replica state")
	}
	t := rt.newTask(kindCompute, []Access{R(a), R(b), RW(c)})
	t.kern = KernelSpec{Routine: blasops.Gemm, M: nb, N: nb, K: nb, Flops: 2 * nb * nb * nb}
	return &policyRig{rt: rt, tiles: []*cache.Tile{a, b}, task: t}
}

// selectAll runs one source selection per rig tile and destination GPU.
func (r *policyRig) selectAll(sel policy.SourceSelector) {
	topo := r.rt.Plat.Topo
	for _, tl := range r.tiles {
		for d := range r.rt.Plat.GPUs {
			if _, _, ok := policy.SelectSource(sel, topo, tl, topology.DeviceID(d), &r.rt.dec); !ok {
				panic("policy rig: tile has no copy")
			}
		}
	}
}

// TestTileQueriesAllocFree is the policy-layer allocation gate behind
// `make bench-alloc`: DMDAS placement and source selection read the
// cache's replica sets by value and must allocate nothing.
func TestTileQueriesAllocFree(t *testing.T) {
	r := newPolicyRig(t)
	st := schedState{r.rt}
	if n := testing.AllocsPerRun(100, func() { policy.DMDAS{}.Assign(r.task, st) }); n != 0 {
		t.Errorf("DMDAS.Assign allocates %.1f objects per call, want 0", n)
	}
	for _, sel := range tileQuerySelectors {
		if n := testing.AllocsPerRun(100, func() { r.selectAll(sel) }); n != 0 {
			t.Errorf("SelectSource(%s) allocates %.1f objects per pass, want 0", sel.Name(), n)
		}
	}
	if d := r.rt.Decisions(); d.ChainsTaken == 0 {
		t.Error("the optimistic selector never chained: the in-flight path went unexercised")
	}
}

// benchSink keeps the benchmarked results live.
var benchSink topology.DeviceID

// BenchmarkDMDASAssign measures one DMDAS placement of a three-operand
// task on the 8-GPU DGX-1.
func BenchmarkDMDASAssign(b *testing.B) {
	r := newPolicyRig(b)
	st := schedState{r.rt}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = policy.DMDAS{}.Assign(r.task, st)
	}
}

// BenchmarkSelectSource measures source selection per selector; one op is
// a pass over both rig tiles and all eight destinations.
func BenchmarkSelectSource(b *testing.B) {
	r := newPolicyRig(b)
	for _, sel := range tileQuerySelectors {
		b.Run(sel.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.selectAll(sel)
			}
			b.ReportMetric(float64(len(r.tiles)*len(r.rt.Plat.GPUs)), "selects/op")
		})
	}
}
