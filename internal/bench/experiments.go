package bench

import (
	"fmt"
	"io"
	"math"
	"strings"

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

// LibraryByName returns the library of the Fig. 5 roster or of the two
// Fig. 3 ablations that has the given name, or nil when none has it.
func LibraryByName(name string) baseline.Library {
	for _, l := range append(Roster(), baseline.XKBlasNoHeuristic(), baseline.XKBlasNoHeuristicNoTopo()) {
		if l.Name() == name {
			return l
		}
	}
	return nil
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
// host). A device row's values are its GB/s to each device, host last.
func Fig2BandwidthMatrix(w io.Writer, cfg Config) []Row {
	const payload = 256 << 20
	topo := cfg.platform()
	n := topo.NumGPUs
	rp := report{w: w}
	rp.line("Fig. 2 — measured bandwidth (GB/s) between devices (256 MiB payloads)")
	head := "D\\D "
	for j := 0; j < n; j++ {
		head += fmt.Sprintf("%8d", j)
	}
	rp.line(head + fmt.Sprintf("%8s", "host"))
	devOf := func(i int) topology.DeviceID {
		if i == n {
			return topology.Host
		}
		return topology.DeviceID(i)
	}
	for i := 0; i <= n; i++ {
		row := Row{Label: fmt.Sprintf("%-4d", i)}
		if i == n {
			row.Label = "host"
		}
		for j := 0; j <= n; j++ {
			src, dst := devOf(i), devOf(j)
			if src == topology.Host && dst == topology.Host {
				row.Format += fmt.Sprintf("%8s", "-")
				continue
			}
			eng := sim.NewEngine()
			plat := device.NewPlatform(eng, topo)
			var dur sim.Time
			plat.Transfer(src, dst, payload, sim.JobFunc(func(st, en sim.Time) { dur = en - st }))
			eng.Run()
			row.Format += "%8.2f"
			row.Values = append(row.Values, float64(payload)/float64(dur)/1e9)
		}
		rp.add(row)
	}
	return rp.rows
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
func TableII(w io.Writer, run Config, quick bool) []Row {
	cfg := sweepDefaults(run, quick)
	routines := []blasops.Routine{blasops.Gemm, blasops.Syr2k, blasops.Trsm}
	rp := report{w: w}
	rp.line("Table II — max loss/gain vs baseline XKBlas, N ≥ 16384")
	rp.line(fmt.Sprintf("%-8s %16s %14s %22s", "Kernel", "data-on-device", "no heuristic", "no heuristic, no topo"))
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
		// A row with a failed measurement reports it instead of an extreme
		// over the points that did complete.
		rp.add(Row{Label: fmt.Sprintf("D%-7s", r), Format: " %+15.1f%% %+13.1f%% %+21.1f%%",
			Values: []float64{100 * dodMax, 100 * noHMin, 100 * noHTMin}, Err: err})
	}
	rp.line("(paper: DGEMM +111.7/-43.5/-43; DSYR2K +71.1/-19.4/-53.5; DTRSM +52.6/-29.6/-29.3)")
	return rp.rows
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
	// The sweep's own progress lines would name the points XKBlas; each is
	// printed once, relabelled, below.
	dodCfg.Progress = nil
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
// A library row's values are its cumulative seconds, then its normalized
// shares, in trace.Kinds order.
func Fig6(w io.Writer, cfg Config, quick bool) []Row {
	n := 32768
	if quick {
		n = 16384
	}
	rp := report{w: w}
	rp.line(fmt.Sprintf("Fig. 6 — GEMM FP64 trace breakdown at N=%d (cumulative GPU seconds | normalized %%)", n))
	head, cumFormat, normFormat := fmt.Sprintf("%-16s", "library"), "", "  |"
	for _, k := range trace.Kinds() {
		head += fmt.Sprintf(" %12s", k)
		cumFormat += " %11.2fs"
		normFormat += " " + k.String() + " %4.1f%%"
	}
	rp.line(head + "  | normalized ratios")
	for _, lib := range fig6Libs() {
		res := lib.Run(baseline.Request{Routine: blasops.Gemm, N: n, NB: 4096, Platform: cfg.Platform, Trace: true, Check: cfg.Check, Ctx: cfg.Ctx})
		row := Row{Label: fmt.Sprintf("%-16s", lib.Name()), Format: cumFormat + normFormat, Err: res.Err}
		if res.Err == nil {
			cum, norm := res.Rec.CumulativeByKind(), res.Rec.NormalizedByKind()
			for _, k := range trace.Kinds() {
				row.Values = append(row.Values, float64(cum[k]))
			}
			for _, k := range trace.Kinds() {
				row.Values = append(row.Values, norm[k])
			}
		}
		rp.add(row)
	}
	rp.line("(paper: XKBlas ≈25.4% of GPU time in transfers, Chameleon Tile ≈41.2%, cuBLAS-XT transfer-dominated)")
	return rp.rows
}

// Fig7 reproduces the per-GPU SYR2K trace at N = 49152 for Chameleon Tile,
// cuBLAS-XT and XKBlas, one row per GPU of the run's platform: each
// library's section row carries its GF/s, and each GPU row its seconds per
// operation kind, in trace.Kinds order.
func Fig7(w io.Writer, cfg Config, quick bool) []Row {
	n := 49152
	if quick {
		n = 16384
	}
	rp := report{w: w}
	rp.line(fmt.Sprintf("Fig. 7 — SYR2K FP64 per-GPU trace at N=%d (seconds per operation kind)", n))
	gpus := cfg.platform().NumGPUs
	head, format := fmt.Sprintf("%-5s", "GPU"), ""
	for _, k := range trace.Kinds() {
		head += fmt.Sprintf(" %12s", k)
		format += " %11.2fs"
	}
	libs := []baseline.Library{baseline.ChameleonTile(), baseline.CuBLASXT(), baseline.XKBlas()}
	for _, lib := range libs {
		res := lib.Run(baseline.Request{Routine: blasops.Syr2k, N: n, NB: 2048, Platform: cfg.Platform, Trace: true, Check: cfg.Check, Ctx: cfg.Ctx})
		rp.add(Row{Label: "-- " + lib.Name(), Format: " (%.1f GF/s) --", Values: []float64{res.GFlops}, Err: res.Err})
		if res.Err != nil {
			continue
		}
		per := res.Rec.PerGPUByKind(gpus)
		rp.line(head)
		for g := 0; g < gpus; g++ {
			var secs []float64
			for _, k := range trace.Kinds() {
				secs = append(secs, float64(per[g][k]))
			}
			rp.add(Row{Label: fmt.Sprintf("%-5d", g+1), Format: format, Values: secs})
		}
	}
	return rp.rows
}

// Fig8 reproduces the TRSM+GEMM composition sweep for Chameleon Tile and
// XKBlas; each row's value is TFlop/s.
func Fig8(w io.Writer, cfg Config, quick bool) []Row {
	sizes := []int{8192, 16384, 24576, 32768, 40960, 49152, 57344}
	if quick {
		sizes = []int{8192, 16384, 32768}
	}
	rp := report{w: w}
	rp.line("Fig. 8 — composition TRSM+GEMM FP64, block size 2048, 8 GPUs (TFlop/s)")
	libs := []baseline.Library{baseline.ChameleonTile(), baseline.XKBlas()}
	for _, lib := range libs {
		comp := lib.(baseline.Composer)
		for _, n := range sizes {
			res := comp.RunComposition(baseline.Request{Routine: blasops.Gemm, N: n, NB: 2048, Platform: cfg.Platform, Check: cfg.Check, Ctx: cfg.Ctx})
			rp.add(Row{Label: fmt.Sprintf("%-16s N=%-6d", lib.Name(), n), Format: " %8.2f TFlop/s",
				Values: []float64{TFlops(res.GFlops)}, Err: res.Err})
		}
	}
	rp.line("(paper: XKBlas 56.6 TFlop/s ≈ its GEMM peak; Chameleon 36.6 TFlop/s, below its 51.3 GEMM peak)")
	return rp.rows
}

// Fig9 renders the composition Gantt charts at N = 32768 showing
// Chameleon's inter-call synchronization gaps against XKBlas' seamless
// composition, one kernel lane per GPU of the run's platform. Each
// library's section row carries its TFlop/s and its last row the mean
// kernel-lane idle ratio, in percent.
func Fig9(w io.Writer, cfg Config, quick bool) []Row {
	n := 32768
	if quick {
		n = 16384
	}
	rp := report{w: w}
	rp.line(fmt.Sprintf("Fig. 9 — TRSM+GEMM composition Gantt at N=%d, block 2048", n))
	gpus := cfg.platform().NumGPUs
	libs := []baseline.Library{baseline.ChameleonTile(), baseline.XKBlas()}
	for _, lib := range libs {
		res := lib.(baseline.Composer).RunComposition(baseline.Request{
			Routine: blasops.Gemm, N: n, NB: 2048, Platform: cfg.Platform, Trace: true, Check: cfg.Check, Ctx: cfg.Ctx})
		rp.add(Row{Label: "-- " + lib.Name(), Format: " (%.2f TFlop/s) --", Values: []float64{TFlops(res.GFlops)}, Err: res.Err})
		if res.Err != nil {
			continue
		}
		var chart strings.Builder
		res.Rec.Gantt(&chart, gpus, 100) // a Builder never fails a write
		for _, l := range strings.Split(strings.TrimSuffix(chart.String(), "\n"), "\n") {
			rp.line(l)
		}
		var mean float64
		for _, x := range res.Rec.IdleRatio(gpus) {
			mean += x / float64(gpus)
		}
		rp.add(Row{Label: "mean kernel-lane idle ratio:", Format: " %.1f%%", Values: []float64{100 * mean}})
	}
	return rp.rows
}
