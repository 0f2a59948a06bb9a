package xkrt

import (
	"math/rand"
	"testing"

	"xkblas/internal/blasops"
	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/policy"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// Sequential-consistency stress test: random task DAGs over a shared tile
// pool, where every task writes a value derived from what it reads. The
// runtime result must equal a sequential execution of the same program in
// submission order, for every scheduler/heuristic configuration.
func TestRandomDAGSequentialConsistency(t *testing.T) {
	configs := []Options{
		{Window: 4, Policy: &policy.XKBlas},
		{Window: 1, Policy: &policy.NoHeuristicNoTopo},
		{Window: 3, Policy: &policy.XKBlasDMDAS},
		{Window: 2, Policy: &policy.Bundle{Source: policy.HostOnly{}, Scheduler: policy.WorkStealing{NoSteal: true}, Evictor: policy.Streaming{}}},
		{Window: 2, Policy: &policy.Bundle{Source: policy.SameSwitch{Base: policy.LowestID{}}, Scheduler: policy.WorkStealing{}, Evictor: policy.LRUReadOnlyFirst{}}},
	}
	for ci, opt := range configs {
		for seed := int64(0); seed < 4; seed++ {
			runDAGStress(t, opt, seed, ci)
		}
	}
}

func runDAGStress(t *testing.T, opt Options, seed int64, ci int) {
	t.Helper()
	const nTiles, nTasks, nb = 12, 60, 4
	rng := rand.New(rand.NewSource(seed*7 + 13))

	build := func() (*Runtime, []*Matrix) {
		eng := sim.NewEngine()
		plat := device.NewPlatform(eng, topology.DGX1())
		rt := New(eng, plat, true, opt)
		var ms []*Matrix
		for i := 0; i < nTiles; i++ {
			v := matrix.New(nb, nb)
			for x := range v.Data {
				v.Data[x] = float64(i*100 + x)
			}
			ms = append(ms, rt.Register(v, nb))
		}
		return rt, ms
	}

	// Program: each step reads 1-2 tiles and read-writes another,
	// combining values with a deterministic function.
	type step struct {
		reads []int
		write int
	}
	var program []step
	for s := 0; s < nTasks; s++ {
		st := step{write: rng.Intn(nTiles)}
		nr := 1 + rng.Intn(2)
		for r := 0; r < nr; r++ {
			in := rng.Intn(nTiles)
			if in != st.write {
				st.reads = append(st.reads, in)
			}
		}
		program = append(program, st)
	}

	// Sequential reference on plain host data.
	ref := make([][]float64, nTiles)
	for i := range ref {
		ref[i] = make([]float64, nb*nb)
		for x := range ref[i] {
			ref[i][x] = float64(i*100 + x)
		}
	}
	apply := func(dst []float64, srcs [][]float64) {
		for x := range dst {
			v := dst[x] * 0.5
			for _, s := range srcs {
				v += s[x] * 0.25
			}
			dst[x] = v + 1
		}
	}
	for _, st := range program {
		var srcs [][]float64
		for _, r := range st.reads {
			srcs = append(srcs, ref[r])
		}
		apply(ref[st.write], srcs)
	}

	// Runtime execution.
	rt, ms := build()
	for _, st := range program {
		accs := []Access{RW(ms[st.write].Tile(0, 0))}
		for _, r := range st.reads {
			accs = append(accs, R(ms[r].Tile(0, 0)))
		}
		spec := KernelSpec{
			Routine: blasops.Gemm, M: nb, N: nb, K: nb,
			Flops: float64(1000 + rng.Intn(100000)),
			Body: func(bufs []matrix.View) {
				dst := bufs[0]
				for x := 0; x < nb*nb; x++ {
					i, j := x%nb, x/nb
					v := dst.At(i, j) * 0.5
					for _, src := range bufs[1:] {
						v += src.At(i, j) * 0.25
					}
					dst.Set(i, j, v+1)
				}
			},
		}
		rt.Submit("step", spec, rng.Intn(5), accs...)
	}
	for _, m := range ms {
		rt.SubmitFlush(m.Tile(0, 0))
	}
	rt.Barrier()

	for i, m := range ms {
		for x := 0; x < nb*nb; x++ {
			got := m.View.Data[x]
			want := ref[i][x]
			if got != want {
				t.Fatalf("config %d seed %d: tile %d elem %d = %g, want %g (sequential consistency violated)",
					ci, seed, i, x, got, want)
			}
		}
	}
}

// The stress DAG must also produce identical virtual timings across
// repeated runs (determinism under every policy).
func TestRandomDAGDeterministicTiming(t *testing.T) {
	opt := Options{Window: 4, Policy: &policy.XKBlas}
	run := func() sim.Time {
		eng := sim.NewEngine()
		plat := device.NewPlatform(eng, topology.DGX1())
		rt := New(eng, plat, false, opt)
		rng := rand.New(rand.NewSource(5))
		var tiles []*Matrix
		for i := 0; i < 10; i++ {
			tiles = append(tiles, rt.Register(matrix.NewShape(256, 256), 256))
		}
		for s := 0; s < 80; s++ {
			w := tiles[rng.Intn(10)]
			r := tiles[rng.Intn(10)]
			spec := KernelSpec{Routine: blasops.Gemm, M: 256, N: 256, K: 256,
				Flops: 2 * 256 * 256 * 256}
			rt.Submit("s", spec, 0, R(r.Tile(0, 0)), RW(w.Tile(0, 0)))
		}
		return rt.Barrier()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
