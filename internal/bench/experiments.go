package bench

import (
	"fmt"
	"io"
	"math"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
	"xkblas/internal/device"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
	"xkblas/internal/trace"
)

// This file regenerates every table and figure of the paper's evaluation
// (§IV). Each function prints the same rows/series the paper reports and
// takes the caller's Config for the run-wide settings; cmd/xkbench exposes
// them behind -exp flags and bench_test.go wraps them in testing.B
// benchmarks.

// Roster returns the Fig. 5 library set.
func Roster() []baseline.Library {
	return []baseline.Library{
		baseline.BLASX(),
		baseline.ChameleonLAPACK(),
		baseline.ChameleonTile(),
		baseline.CuBLASMG(),
		baseline.CuBLASXT(),
		baseline.DPLASMA(),
		baseline.Slate(),
		baseline.XKBlas(),
	}
}

// sweepDefaults fills common knobs over the run-wide part of run:
// paper-or-quick sizes, 3 runs quick / 8 full, and extended tiles for the
// host-only libraries.
func sweepDefaults(run Config, quick bool) Config {
	cfg := run.runWide()
	cfg.Tiles = DefaultTiles()
	cfg.ExtraTilesFor = map[string]bool{"cuBLAS-XT": true, "Slate": true}
	cfg.NoiseAmp = 0.02
	cfg.MaxTilesPerDim = 40
	if quick {
		cfg.Sizes = QuickSizes()
		cfg.Runs = 3
	} else {
		cfg.Sizes = PaperSizes()
		cfg.Runs = 8
	}
	return cfg
}

// TableI prints the platform characteristics table. The historical DGX-1
// wording is kept byte-identical when cfg.Platform is nil; an explicit
// platform gets a generic rendering of the same fields.
func TableI(w io.Writer, cfg Config) {
	p := cfg.platform()
	if cfg.Platform == nil {
		fmt.Fprintln(w, "Table I — Main characteristics of the DGX-1 multi-GPU system (simulated)")
		fmt.Fprintln(w, "Name    CPU                              GPU")
		fmt.Fprintf(w, "Gemini  2x Xeon E5-2698 v4 2.2GHz (model) %dx %s, %d GB, peak FP64 %.1f TFlop/s\n",
			p.NumGPUs, p.GPU.Name, p.GPU.MemoryBytes>>30, p.GPU.PeakFP64/1e12)
		fmt.Fprintf(w, "Interconnect: NVLink-2 hybrid cube-mesh between GPUs; PCIe Gen3 x16 switches (%.1f GB/s, shared per GPU pair) to the host; QPI %.1f GB/s between sockets\n",
			p.SwitchGBs, p.InterSocketGBs)
		return
	}
	fmt.Fprintf(w, "Table I — Main characteristics of %s (simulated)\n", p.Name)
	fmt.Fprintf(w, "GPUs: %dx %s, %d GB, peak FP64 %.1f TFlop/s\n",
		p.NumGPUs, p.GPU.Name, p.GPU.MemoryBytes>>30, p.GPU.PeakFP64/1e12)
	fmt.Fprintf(w, "Interconnect: host links %.1f GB/s shared per GPU pair; inter-socket %.1f GB/s\n",
		p.SwitchGBs, p.InterSocketGBs)
}

// Fig2BandwidthMatrix measures the pairwise transfer bandwidth between all
// devices with 256 MiB payloads on an otherwise idle platform and prints
// the matrix of Fig. 2 (GB/s; diagonal = on-device copy; last row/column =
// host).
func Fig2BandwidthMatrix(w io.Writer, cfg Config) {
	const payload = 256 << 20
	topo := cfg.platform()
	n := topo.NumGPUs
	fmt.Fprintln(w, "Fig. 2 — measured bandwidth (GB/s) between devices (256 MiB payloads)")
	fmt.Fprintf(w, "D\\D ")
	for j := 0; j <= n; j++ {
		if j == n {
			fmt.Fprintf(w, "%8s", "host")
		} else {
			fmt.Fprintf(w, "%8d", j)
		}
	}
	fmt.Fprintln(w)
	devOf := func(i int) topology.DeviceID {
		if i == n {
			return topology.Host
		}
		return topology.DeviceID(i)
	}
	for i := 0; i <= n; i++ {
		if i == n {
			fmt.Fprintf(w, "host")
		} else {
			fmt.Fprintf(w, "%-4d", i)
		}
		for j := 0; j <= n; j++ {
			src, dst := devOf(i), devOf(j)
			if src == topology.Host && dst == topology.Host {
				fmt.Fprintf(w, "%8s", "-")
				continue
			}
			eng := sim.NewEngine()
			plat := device.NewPlatform(eng, topo)
			var dur sim.Time
			plat.Transfer(src, dst, payload, sim.JobFunc(func(st, en sim.Time) { dur = en - st }))
			eng.Run()
			fmt.Fprintf(w, "%8.2f", float64(payload)/float64(dur)/1e9)
		}
		fmt.Fprintln(w)
	}
}

// Fig3 reproduces the heuristics ablation: GEMM, SYR2K and TRSM with the
// two heuristics toggled, cuBLAS-XT as the reference curve, data-on-host.
func Fig3(w io.Writer, run Config, quick bool) []Point {
	cfg := sweepDefaults(run, quick)
	cfg.Libs = []baseline.Library{
		baseline.CuBLASXT(),
		baseline.XKBlas(),
		baseline.XKBlasNoHeuristic(),
		baseline.XKBlasNoHeuristicNoTopo(),
	}
	cfg.Routines = []blasops.Routine{blasops.Gemm, blasops.Syr2k, blasops.Trsm}
	cfg.Progress = w
	fmt.Fprintln(w, "Fig. 3 — FP64 performance with heuristics disabled (data-on-host, 8 GPUs)")
	return RunSweep(cfg)
}

// TableII reports the maximum loss/gain of each XKBlas variant versus the
// full library for N ≥ 16384, plus the data-on-device gain.
func TableII(w io.Writer, run Config, quick bool) {
	cfg := sweepDefaults(run, quick)
	routines := []blasops.Routine{blasops.Gemm, blasops.Syr2k, blasops.Trsm}
	fmt.Fprintln(w, "Table II — max loss/gain vs baseline XKBlas, N ≥ 16384")
	fmt.Fprintf(w, "%-8s %16s %14s %22s\n", "Kernel", "data-on-device", "no heuristic", "no heuristic, no topo")
	base := baseline.XKBlas()
	noH := baseline.XKBlasNoHeuristic()
	noHT := baseline.XKBlasNoHeuristicNoTopo()
	for _, r := range routines {
		var dodMax float64
		noHMin, noHTMin := math.Inf(1), math.Inf(1)
		var err error
		measured := false
		for _, n := range cfg.Sizes {
			if n < 16384 {
				continue
			}
			ref := MeasurePoint(cfg, base, r, n)
			if err = ref.Err; err != nil {
				break
			}
			if ref.GFlops == 0 {
				continue
			}
			dodCfg := cfg
			dodCfg.Scenario = baseline.DataOnDevice
			dod := MeasurePoint(dodCfg, base, r, n)
			nh := MeasurePoint(cfg, noH, r, n)
			nht := MeasurePoint(cfg, noHT, r, n)
			if err = firstErr(dod.Err, nh.Err, nht.Err); err != nil {
				break
			}
			if g := dod.GFlops/ref.GFlops - 1; g > dodMax {
				dodMax = g
			}
			if g := nh.GFlops/ref.GFlops - 1; g < noHMin {
				noHMin = g
			}
			if g := nht.GFlops/ref.GFlops - 1; g < noHTMin {
				noHTMin = g
			}
			measured = true
		}
		if err == nil && !measured {
			err = fmt.Errorf("no point at N ≥ 16384")
		}
		if err != nil {
			// A row with a failed measurement reports it instead of an
			// extreme over the points that did complete.
			fmt.Fprintf(w, "D%-7s ERROR: %v\n", r, err)
			continue
		}
		fmt.Fprintf(w, "D%-7s %+15.1f%% %+13.1f%% %+21.1f%%\n",
			r, 100*dodMax, 100*noHMin, 100*noHTMin)
	}
	fmt.Fprintln(w, "(paper: DGEMM +111.7/-43.5/-43; DSYR2K +71.1/-19.4/-53.5; DTRSM +52.6/-29.6/-29.3)")
}

// Fig4 compares data-on-device against data-on-host for GEMM, SYR2K and
// TRSM, keeping Chameleon Tile and cuBLAS-XT as references.
func Fig4(w io.Writer, run Config, quick bool) []Point {
	cfg := sweepDefaults(run, quick)
	cfg.Routines = []blasops.Routine{blasops.Gemm, blasops.Syr2k, blasops.Trsm}
	cfg.Progress = w
	fmt.Fprintln(w, "Fig. 4 — data-on-device (2D block-cyclic on a (4,2) GPU grid) vs data-on-host")
	cfg.Libs = []baseline.Library{baseline.ChameleonTile(), baseline.CuBLASXT(), baseline.XKBlas()}
	host := RunSweep(cfg)
	dodCfg := cfg
	dodCfg.Scenario = baseline.DataOnDevice
	dodCfg.Libs = []baseline.Library{baseline.XKBlas()}
	fmt.Fprintln(w, "-- XKBlas DoD --")
	dod := RunSweep(dodCfg)
	for i := range dod {
		dod[i].Lib = "XKBlas DoD"
		progressLine(w, dod[i])
	}
	return append(host, dod...)
}

// Fig5 is the full library comparison: six routines, eight libraries,
// data-on-host.
func Fig5(w io.Writer, run Config, quick bool) []Point {
	cfg := sweepDefaults(run, quick)
	cfg.Libs = Roster()
	cfg.Routines = blasops.All()
	cfg.Progress = w
	fmt.Fprintln(w, "Fig. 5 — performance of 8 libraries on DGX-1 (8 GPUs), 6 BLAS-3 subroutines, data-on-host")
	return RunSweep(cfg)
}

// fig6Libs is the library set of the GEMM trace analysis.
func fig6Libs() []baseline.Library {
	return []baseline.Library{
		baseline.BLASX(),
		baseline.ChameleonTile(),
		baseline.CuBLASMG(),
		baseline.CuBLASXT(),
		baseline.DPLASMA(),
		baseline.XKBlas(),
	}
}

// Fig6 reproduces the GEMM execution-trace breakdown at N = 32768:
// cumulative seconds per operation kind and the normalized occupancy ratio.
func Fig6(w io.Writer, cfg Config, quick bool) {
	n := 32768
	if quick {
		n = 16384
	}
	fmt.Fprintf(w, "Fig. 6 — GEMM FP64 trace breakdown at N=%d (cumulative GPU seconds | normalized %%)\n", n)
	fmt.Fprintf(w, "%-16s", "library")
	for _, k := range trace.Kinds() {
		fmt.Fprintf(w, " %12s", k)
	}
	fmt.Fprintln(w, "  | normalized ratios")
	for _, lib := range fig6Libs() {
		res := lib.Run(baseline.Request{Routine: blasops.Gemm, N: n, NB: 4096, Platform: cfg.Platform, Trace: true, Check: cfg.Check, Ctx: cfg.Ctx})
		if res.Err != nil {
			fmt.Fprintf(w, "%-16s ERROR: %v\n", lib.Name(), res.Err)
			continue
		}
		cum := res.Rec.CumulativeByKind()
		norm := res.Rec.NormalizedByKind()
		fmt.Fprintf(w, "%-16s", lib.Name())
		for _, k := range trace.Kinds() {
			fmt.Fprintf(w, " %11.2fs", float64(cum[k]))
		}
		fmt.Fprint(w, "  |")
		for _, k := range trace.Kinds() {
			fmt.Fprintf(w, " %s %4.1f%%", k, norm[k])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(paper: XKBlas ≈25.4% of GPU time in transfers, Chameleon Tile ≈41.2%, cuBLAS-XT transfer-dominated)")
}

// Fig7 reproduces the per-GPU SYR2K trace at N = 49152 for Chameleon Tile,
// cuBLAS-XT and XKBlas, one row per GPU of the run's platform.
func Fig7(w io.Writer, cfg Config, quick bool) {
	n := 49152
	if quick {
		n = 16384
	}
	fmt.Fprintf(w, "Fig. 7 — SYR2K FP64 per-GPU trace at N=%d (seconds per operation kind)\n", n)
	gpus := cfg.platform().NumGPUs
	libs := []baseline.Library{baseline.ChameleonTile(), baseline.CuBLASXT(), baseline.XKBlas()}
	for _, lib := range libs {
		res := lib.Run(baseline.Request{Routine: blasops.Syr2k, N: n, NB: 2048, Platform: cfg.Platform, Trace: true, Check: cfg.Check, Ctx: cfg.Ctx})
		if res.Err != nil {
			fmt.Fprintf(w, "%s: ERROR %v\n", lib.Name(), res.Err)
			continue
		}
		fmt.Fprintf(w, "-- %s (%.1f GF/s) --\n", lib.Name(), res.GFlops)
		per := res.Rec.PerGPUByKind(gpus)
		fmt.Fprintf(w, "%-5s", "GPU")
		for _, k := range trace.Kinds() {
			fmt.Fprintf(w, " %12s", k)
		}
		fmt.Fprintln(w)
		for g := 0; g < gpus; g++ {
			fmt.Fprintf(w, "%-5d", g+1)
			for _, k := range trace.Kinds() {
				fmt.Fprintf(w, " %11.2fs", float64(per[g][k]))
			}
			fmt.Fprintln(w)
		}
	}
}

// Fig8 reproduces the TRSM+GEMM composition sweep for Chameleon Tile and
// XKBlas.
func Fig8(w io.Writer, cfg Config, quick bool) {
	sizes := []int{8192, 16384, 24576, 32768, 40960, 49152, 57344}
	if quick {
		sizes = []int{8192, 16384, 32768}
	}
	fmt.Fprintln(w, "Fig. 8 — composition TRSM+GEMM FP64, block size 2048, 8 GPUs (TFlop/s)")
	libs := []baseline.Library{baseline.ChameleonTile(), baseline.XKBlas()}
	for _, lib := range libs {
		comp := lib.(baseline.Composer)
		for _, n := range sizes {
			res := comp.RunComposition(baseline.Request{Routine: blasops.Gemm, N: n, NB: 2048, Platform: cfg.Platform, Check: cfg.Check, Ctx: cfg.Ctx})
			if res.Err != nil {
				fmt.Fprintf(w, "%-16s N=%-6d ERROR: %v\n", lib.Name(), n, res.Err)
				continue
			}
			fmt.Fprintf(w, "%-16s N=%-6d %8.2f TFlop/s\n", lib.Name(), n, TFlops(res.GFlops))
		}
	}
	fmt.Fprintln(w, "(paper: XKBlas 56.6 TFlop/s ≈ its GEMM peak; Chameleon 36.6 TFlop/s, below its 51.3 GEMM peak)")
}

// Fig9 renders the composition Gantt charts at N = 32768 showing
// Chameleon's inter-call synchronization gaps against XKBlas' seamless
// composition, one kernel lane per GPU of the run's platform.
func Fig9(w io.Writer, cfg Config, quick bool) {
	n := 32768
	if quick {
		n = 16384
	}
	fmt.Fprintf(w, "Fig. 9 — TRSM+GEMM composition Gantt at N=%d, block 2048\n", n)
	gpus := cfg.platform().NumGPUs
	libs := []baseline.Library{baseline.ChameleonTile(), baseline.XKBlas()}
	for _, lib := range libs {
		res := lib.(baseline.Composer).RunComposition(baseline.Request{
			Routine: blasops.Gemm, N: n, NB: 2048, Platform: cfg.Platform, Trace: true, Check: cfg.Check, Ctx: cfg.Ctx})
		if res.Err != nil {
			fmt.Fprintf(w, "%s: ERROR %v\n", lib.Name(), res.Err)
			continue
		}
		fmt.Fprintf(w, "-- %s (%.2f TFlop/s) --\n", lib.Name(), TFlops(res.GFlops))
		if err := res.Rec.Gantt(w, gpus, 100); err != nil {
			fmt.Fprintf(w, "gantt: %v\n", err)
		}
		var mean float64
		for _, x := range res.Rec.IdleRatio(gpus) {
			mean += x / float64(gpus)
		}
		fmt.Fprintf(w, "mean kernel-lane idle ratio: %.1f%%\n", 100*mean)
	}
}
