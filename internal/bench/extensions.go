package bench

import (
	"fmt"
	"io"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
	"xkblas/internal/core"
	"xkblas/internal/matrix"
	"xkblas/internal/topology"
	"xkblas/internal/xkrt"
)

// Extension experiments beyond the paper's figures: GPU-count scalability
// (the paper reports 8-GPU numbers; the title says "up to 8"), the §III-C
// Summit prediction, and the Hermitian routines of the "9 subroutines"
// remark.

// Scalability sweeps DGEMM over 1..8 GPUs for XKBlas and cuBLAS-XT,
// data-on-host.
func Scalability(w io.Writer, run Config, quick bool) {
	n := 32768
	runs := 8
	if quick {
		n = 16384
		runs = 3
	}
	fmt.Fprintf(w, "Extension — DGEMM strong scaling over GPU count (N=%d, data-on-host)\n", n)
	fmt.Fprintf(w, "%-6s %14s %14s %10s\n", "GPUs", "XKBlas GF/s", "cuBLAS-XT GF/s", "speedup")
	for g := 1; g <= 8; g++ {
		cfg := extensionConfig(run, []int{2048, 4096}, runs)
		cfg.Platform = topology.DGX1WithGPUs(g)
		xk := MeasurePoint(cfg, baseline.XKBlas(), blasops.Gemm, n).GFlops
		xt := MeasurePoint(cfg, baseline.CuBLASXT(), blasops.Gemm, n).GFlops
		ratio := 0.0
		if xt > 0 {
			ratio = xk / xt
		}
		fmt.Fprintf(w, "%-6d %14.1f %14.1f %9.2fx\n", g, xk, xt, ratio)
	}
}

// extensionConfig is the best-tile measurement of the scalability and
// Summit tables: the given tiles and repetitions over the run-wide part of
// run, with their own noise-seed rule. A failed point measures 0 GFlop/s.
func extensionConfig(run Config, tiles []int, runs int) Config {
	cfg := run.runWide()
	cfg.Tiles = tiles
	cfg.Runs = runs
	cfg.NoiseAmp = 0.02
	cfg.repSeeds = true
	return cfg
}

// SummitPrediction tests the heuristics across interconnect designs.
// §III-C predicts the optimistic heuristic gains little when the host link
// is NVLink (Summit); symmetrically, the topology-aware heuristic has
// nothing to rank on a flat NVSwitch fabric (DGX-2), while the optimistic
// forwarding still pays off there because host links remain PCIe. Only the
// hybrid cube-mesh DGX-1 exercises both heuristics — which is why the
// paper evaluates there.
func SummitPrediction(w io.Writer, run Config, quick bool) {
	n := 24576
	runs := 8
	if quick {
		n = 16384
		runs = 3
	}
	fmt.Fprintf(w, "Extension — heuristic gains by platform (DGEMM N=%d, vs no-heuristic-no-topo)\n", n)
	fmt.Fprintf(w, "%-34s %12s %12s %12s\n", "platform", "full GF/s", "ablated GF/s", "total gain")
	rows := []struct {
		name string
		plat *topology.Platform
	}{
		{"DGX-1 (cube-mesh, PCIe host)", topology.DGX1()},
		{"DGX-2 (NVSwitch, PCIe host)", topology.DGX2WithGPUs(8)},
		{"Summit node (NVLink host)", topology.SummitNode()},
	}
	if run.Platform != nil {
		// An explicit platform joins the comparison as a fourth row.
		rows = append(rows, struct {
			name string
			plat *topology.Platform
		}{run.Platform.Name, run.Platform})
	}
	measure := func(lib baseline.Library, plat *topology.Platform) float64 {
		cfg := extensionConfig(run, []int{2048}, runs)
		cfg.Platform = plat
		return MeasurePoint(cfg, lib, blasops.Gemm, n).GFlops
	}
	for _, pc := range rows {
		on := measure(baseline.XKBlas(), pc.plat)
		off := measure(baseline.XKBlasNoHeuristicNoTopo(), pc.plat)
		gain := 0.0
		if off > 0 {
			gain = 100 * (on/off - 1)
		}
		fmt.Fprintf(w, "%-34s %12.1f %12.1f %+11.1f%%\n", pc.name, on, off, gain)
	}
	// Per-heuristic split on the run's platform (the Fig. 3 decomposition
	// at one size; DGX-1 unless the run names another).
	split := run.platform()
	label := "DGX-1"
	if run.Platform != nil {
		label = split.Name
	}
	onD := measure(baseline.XKBlas(), split)
	noH := measure(baseline.XKBlasNoHeuristic(), split)
	fmt.Fprintf(w, "%s optimistic-only contribution: %+5.1f%%\n", label, 100*(onD/noH-1))
}

// Hermitian measures the complex routines (ZGEMM, HEMM, HERK, HER2K) on
// the full XKBlas stack — the remaining three of the paper's "9 standard
// BLAS subroutines" plus their GEMM building block.
func Hermitian(w io.Writer, cfg Config, quick bool) {
	sizes := []int{4096, 8192, 16384, 24576}
	if quick {
		sizes = []int{4096, 8192}
	}
	fmt.Fprintln(w, "Extension — complex/Hermitian routines, XKBlas, data-on-host (GFlop/s, complex flops)")
	for _, r := range blasops.Hermitian() {
		for _, n := range sizes {
			gf := measureHermitian(cfg, r, n, 1024)
			fmt.Fprintf(w, "%-6s N=%-6d %10.1f GF/s\n", r, n, gf)
		}
	}
}

// Factorizations measures the one-sided factorizations built on the BLAS-3
// task layer (POTRF, no-pivoting GETRF) — the MUMPS-style workloads of the
// paper's conclusion — and quantifies the composition benefit: the fully
// asynchronous pipeline versus a fork-join execution with a barrier after
// every panel.
func Factorizations(w io.Writer, cfg Config, quick bool) {
	sizes := []int{8192, 16384, 32768}
	if quick {
		sizes = sizes[:2]
	}
	fmt.Fprintln(w, "Extension — tiled factorizations on XKBlas (data-on-host, nb=1024)")
	fmt.Fprintf(w, "%-8s %-8s %14s %16s %10s\n", "routine", "N", "async TF/s", "fork-join TF/s", "benefit")
	for _, r := range []blasops.Routine{blasops.Potrf, blasops.Getrf} {
		for _, n := range sizes {
			async := measureFactor(cfg, r, n, 1024, false)
			fj := measureFactor(cfg, r, n, 1024, true)
			ben := 0.0
			if fj > 0 {
				ben = 100 * (async/fj - 1)
			}
			fmt.Fprintf(w, "%-8s %-8d %14.2f %16.2f %+9.1f%%\n", r, n, async/1000, fj/1000, ben)
		}
	}
}

// measureFactor runs one factorization in timing mode; panelSync inserts a
// barrier after each panel's tasks (fork-join style).
func measureFactor(cfg Config, r blasops.Routine, n, nb int, panelSync bool) float64 {
	h := newHandle(cfg, nb)
	A := h.Register(matrix.NewShape(n, n))
	t0 := h.Now()
	submit := func(m *xkrt.Matrix) {
		if r == blasops.Potrf {
			h.PotrfAsync(core.Lower, m)
		} else {
			h.GetrfNoPivAsync(m)
		}
	}
	if !panelSync {
		submit(A)
	} else {
		// Same task set, but processed one tile-panel at a time through
		// sub-matrix calls with barriers (fork-join emulation).
		nt := A.Rows()
		for k := 0; k < nt; k++ {
			h.PanelFactorAsync(r, A, k)
			h.Sync()
		}
	}
	h.MemoryCoherentAsync(A)
	el := h.Sync() - t0
	return blasops.GFlops(blasops.FlopsSquare(r, n), float64(el))
}

// PinningCost quantifies the methodology note of §IV-A: every library
// registers (page-locks) operand memory before the timed section; charging
// that cost inside the measurement degrades small-problem throughput
// substantially.
func PinningCost(w io.Writer, cfg Config, quick bool) {
	sizes := []int{8192, 16384, 32768}
	if quick {
		sizes = sizes[:2]
	}
	fmt.Fprintln(w, "Extension — DGEMM with and without page-locking inside the timed section (§IV-A)")
	fmt.Fprintf(w, "%-8s %16s %18s %10s\n", "N", "pinned a priori", "pinning measured", "penalty")
	for _, n := range sizes {
		without := measureGemmPinning(cfg, n, 2048, false)
		with := measureGemmPinning(cfg, n, 2048, true)
		pen := 0.0
		if with > 0 {
			pen = 100 * (without/with - 1)
		}
		fmt.Fprintf(w, "%-8d %13.1f GF %15.1f GF %9.1f%%\n", n, without, with, pen)
	}
}

func measureGemmPinning(cfg Config, n, nb int, chargePin bool) float64 {
	h := newHandle(cfg, nb)
	a := h.Register(matrix.NewShape(n, n))
	b := h.Register(matrix.NewShape(n, n))
	c := h.Register(matrix.NewShape(n, n))
	t0 := h.Now()
	if chargePin {
		// Registration precedes any transfer, as with cudaHostRegister.
		for _, m := range []*xkrt.Matrix{a, b, c} {
			h.PinAsync(m)
		}
		h.Sync()
	}
	h.GemmAsync(core.NoTrans, core.NoTrans, 1, a, b, 1, c)
	h.MemoryCoherentAsync(c)
	el := h.Sync() - t0
	return blasops.GFlops(blasops.FlopsSquare(blasops.Gemm, n), float64(el))
}

func measureHermitian(cfg Config, r blasops.Routine, n, nb int) float64 {
	h := newHandle(cfg, nb)
	z := func() *xkrt.Matrix { return h.RegisterZ(matrix.NewZShape(n, n)) }
	t0 := h.Now()
	switch r {
	case blasops.Zgemm:
		a, b, c := z(), z(), z()
		h.ZgemmAsync(core.NoTrans, core.NoTrans, 1, a, b, 1, c)
		h.MemoryCoherentAsync(c)
	case blasops.Hemm:
		a, b, c := z(), z(), z()
		h.ZhemmAsync(core.Left, core.Lower, 1, a, b, 1, c)
		h.MemoryCoherentAsync(c)
	case blasops.Herk:
		a, c := z(), z()
		h.ZherkAsync(core.Lower, core.NoTrans, 1, a, 1, c)
		h.MemoryCoherentAsync(c)
	case blasops.Her2k:
		a, b, c := z(), z(), z()
		h.Zher2kAsync(core.Lower, core.NoTrans, 1, a, b, 1, c)
		h.MemoryCoherentAsync(c)
	default:
		panic(fmt.Sprintf("bench: %v is not a Hermitian-set routine", r))
	}
	el := h.Sync() - t0
	return blasops.GFlops(blasops.FlopsSquare(r, n), float64(el))
}

// newHandle builds the full-XKBlas timing-mode context of the handle-level
// extensions on the run's platform, audited when the run is.
func newHandle(cfg Config, nb int) *core.Handle {
	return core.NewHandle(core.Config{Platform: cfg.Platform, TileSize: nb, Check: cfg.Check})
}
