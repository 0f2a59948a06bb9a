package bench

import (
	"fmt"
	"io"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
	"xkblas/internal/core"
	"xkblas/internal/matrix"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
	"xkblas/internal/trace"
	"xkblas/internal/xkrt"
)

// Extension experiments beyond the paper's figures: GPU-count scalability
// (the paper reports 8-GPU numbers; the title says "up to 8"), the §III-C
// Summit prediction, and the Hermitian routines of the "9 subroutines"
// remark.

// Scalability sweeps DGEMM over 1..8 GPUs for XKBlas and cuBLAS-XT,
// data-on-host.
func Scalability(w io.Writer, run Config, quick bool) []Row {
	n := 32768
	runs := 8
	if quick {
		n = 16384
		runs = 3
	}
	rp := report{w: w}
	rp.line(fmt.Sprintf("Extension — DGEMM strong scaling over GPU count (N=%d, data-on-host)", n))
	rp.line(fmt.Sprintf("%-6s %14s %14s %10s", "GPUs", "XKBlas GF/s", "cuBLAS-XT GF/s", "speedup"))
	for g := 1; g <= 8; g++ {
		cfg := extensionConfig(run, []int{2048, 4096}, runs)
		cfg.Platform = topology.DGX1WithGPUs(g)
		xk := MeasurePoint(cfg, baseline.XKBlas(), blasops.Gemm, n)
		xt := MeasurePoint(cfg, baseline.CuBLASXT(), blasops.Gemm, n)
		rp.add(Row{Label: fmt.Sprintf("%-6d", g), Format: " %14.1f %14.1f %9.2fx",
			Values: []float64{xk.GFlops, xt.GFlops, ratio(xk.GFlops, xt.GFlops)}, Err: firstErr(xk.Err, xt.Err)})
	}
	return rp.rows
}

// extensionConfig is the best-tile measurement of the scalability and
// Summit tables: the given tiles and repetitions over the run-wide part of
// run, with their own noise-seed rule.
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
func SummitPrediction(w io.Writer, run Config, quick bool) []Row {
	n := 24576
	runs := 8
	if quick {
		n = 16384
		runs = 3
	}
	rp := report{w: w}
	rp.line(fmt.Sprintf("Extension — heuristic gains by platform (DGEMM N=%d, vs no-heuristic-no-topo)", n))
	rp.line(fmt.Sprintf("%-34s %12s %12s %12s", "platform", "full GF/s", "ablated GF/s", "total gain"))
	type platRow struct {
		name string
		plat *topology.Platform
	}
	rows := []platRow{
		{"DGX-1 (cube-mesh, PCIe host)", topology.DGX1()},
		{"DGX-2 (NVSwitch, PCIe host)", topology.DGX2WithGPUs(8)},
		{"Summit node (NVLink host)", topology.SummitNode()},
	}
	if run.Platform != nil {
		// An explicit platform joins the comparison as a fourth row.
		rows = append(rows, platRow{run.Platform.Name, run.Platform})
	}
	measure := func(lib baseline.Library, plat *topology.Platform) Point {
		cfg := extensionConfig(run, []int{2048}, runs)
		cfg.Platform = plat
		return MeasurePoint(cfg, lib, blasops.Gemm, n)
	}
	for _, pc := range rows {
		on := measure(baseline.XKBlas(), pc.plat)
		off := measure(baseline.XKBlasNoHeuristicNoTopo(), pc.plat)
		rp.add(Row{Label: fmt.Sprintf("%-34s", pc.name), Format: " %12.1f %12.1f %+11.1f%%",
			Values: []float64{on.GFlops, off.GFlops, gain(on.GFlops, off.GFlops)}, Err: firstErr(on.Err, off.Err)})
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
	rp.add(Row{Label: label + " optimistic-only contribution:", Format: " %+5.1f%%",
		Values: []float64{gain(onD.GFlops, noH.GFlops)}, Err: firstErr(onD.Err, noH.Err)})
	return rp.rows
}

// Hermitian measures the complex routines (ZGEMM, HEMM, HERK, HER2K) on
// the full XKBlas stack — the remaining three of the paper's "9 standard
// BLAS subroutines" plus their GEMM building block.
func Hermitian(w io.Writer, cfg Config, quick bool) []Row {
	sizes := []int{4096, 8192, 16384, 24576}
	if quick {
		sizes = []int{4096, 8192}
	}
	rp := report{w: w}
	rp.line("Extension — complex/Hermitian routines, XKBlas, data-on-host (GFlop/s, complex flops)")
	for _, r := range blasops.Hermitian() {
		for _, n := range sizes {
			res := measureHermitian(cfg, r, n, 1024)
			rp.add(Row{Label: fmt.Sprintf("%-6s N=%-6d", r, n), Format: " %10.1f GF/s",
				Values: []float64{res.GFlops}, Err: res.Err})
		}
	}
	return rp.rows
}

// Factorizations measures the one-sided factorizations built on the BLAS-3
// task layer (POTRF, no-pivoting GETRF) — the MUMPS-style workloads of the
// paper's conclusion — and quantifies the composition benefit: the fully
// asynchronous pipeline versus a fork-join execution with a barrier after
// every panel.
func Factorizations(w io.Writer, cfg Config, quick bool) []Row {
	sizes := []int{8192, 16384, 32768}
	if quick {
		sizes = sizes[:2]
	}
	rp := report{w: w}
	rp.line("Extension — tiled factorizations on XKBlas (data-on-host, nb=1024)")
	rp.line(fmt.Sprintf("%-8s %-8s %14s %16s %10s", "routine", "N", "async TF/s", "fork-join TF/s", "benefit"))
	for _, r := range []blasops.Routine{blasops.Potrf, blasops.Getrf} {
		for _, n := range sizes {
			async := measureFactor(cfg, r, n, 1024, false)
			fj := measureFactor(cfg, r, n, 1024, true)
			rp.add(Row{Label: fmt.Sprintf("%-8s %-8d", r, n), Format: " %14.2f %16.2f %+9.1f%%",
				Values: []float64{async.GFlops / 1000, fj.GFlops / 1000, gain(async.GFlops, fj.GFlops)},
				Err:    firstErr(async.Err, fj.Err)})
		}
	}
	return rp.rows
}

// measureFactor runs one factorization in timing mode; panelSync inserts a
// barrier after each panel's tasks (fork-join style).
func measureFactor(cfg Config, r blasops.Routine, n, nb int, panelSync bool) baseline.Result {
	return callXKBlas(cfg, nb, func(h *core.Handle, _ *trace.Recorder) (sim.Time, float64) {
		A := h.Register(matrix.NewShape(n, n))
		start := h.Now()
		switch {
		case panelSync:
			// Same task set, but processed one tile-panel at a time through
			// sub-matrix calls with barriers (fork-join emulation).
			for k := 0; k < A.Rows(); k++ {
				h.PanelFactorAsync(r, A, k)
				h.Sync()
			}
		case r == blasops.Potrf:
			h.PotrfAsync(core.Lower, A)
		default:
			h.GetrfNoPivAsync(A)
		}
		h.MemoryCoherentAsync(A)
		return start, blasops.FlopsSquare(r, n)
	})
}

// PinningCost quantifies the methodology note of §IV-A: every library
// registers (page-locks) operand memory before the timed section; charging
// that cost inside the measurement degrades small-problem throughput
// substantially.
func PinningCost(w io.Writer, cfg Config, quick bool) []Row {
	sizes := []int{8192, 16384, 32768}
	if quick {
		sizes = sizes[:2]
	}
	rp := report{w: w}
	rp.line("Extension — DGEMM with and without page-locking inside the timed section (§IV-A)")
	rp.line(fmt.Sprintf("%-8s %16s %18s %10s", "N", "pinned a priori", "pinning measured", "penalty"))
	for _, n := range sizes {
		without := measureGemmPinning(cfg, n, 2048, false)
		with := measureGemmPinning(cfg, n, 2048, true)
		rp.add(Row{Label: fmt.Sprintf("%-8d", n), Format: " %13.1f GF %15.1f GF %9.1f%%",
			Values: []float64{without.GFlops, with.GFlops, gain(without.GFlops, with.GFlops)},
			Err:    firstErr(without.Err, with.Err)})
	}
	return rp.rows
}

func measureGemmPinning(cfg Config, n, nb int, chargePin bool) baseline.Result {
	return callXKBlas(cfg, nb, func(h *core.Handle, _ *trace.Recorder) (sim.Time, float64) {
		a := h.Register(matrix.NewShape(n, n))
		b := h.Register(matrix.NewShape(n, n))
		c := h.Register(matrix.NewShape(n, n))
		start := h.Now()
		if chargePin {
			// Registration precedes any transfer, as with cudaHostRegister.
			for _, m := range []*xkrt.Matrix{a, b, c} {
				h.PinAsync(m)
			}
			h.Sync()
		}
		h.GemmAsync(core.NoTrans, core.NoTrans, 1, a, b, 1, c)
		h.MemoryCoherentAsync(c)
		return start, blasops.FlopsSquare(blasops.Gemm, n)
	})
}

func measureHermitian(cfg Config, r blasops.Routine, n, nb int) baseline.Result {
	return callXKBlas(cfg, nb, func(h *core.Handle, _ *trace.Recorder) (sim.Time, float64) {
		z := func() *xkrt.Matrix { return h.RegisterZ(matrix.NewZShape(n, n)) }
		start := h.Now()
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
		return start, blasops.FlopsSquare(r, n)
	})
}

// callXKBlas runs one handle-level extension call on the full XKBlas
// library through baseline's measurement protocol, at tile size nb on the
// run's platform: audited, cancellable and on a recycled context like
// every sweep leaf.
func callXKBlas(cfg Config, nb int, body baseline.Body) baseline.Result {
	req := baseline.Request{NB: nb, Platform: cfg.Platform, Check: cfg.Check, Ctx: cfg.Ctx}
	return baseline.XKBlas().(*baseline.StdLib).Call(req, body)
}
