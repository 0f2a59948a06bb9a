package xkblas_test

// One testing.B benchmark per table/figure of the paper's evaluation, plus
// the ablation benches of DESIGN.md §5. Every benchmark runs the full
// simulation pipeline; the wall time Go reports measures the simulator,
// while the paper's metric — modelled GFlop/s on the virtual DGX-1 — is
// attached via b.ReportMetric as "model-GF/s". cmd/xkbench runs the same
// experiments at full paper scale.

import (
	"fmt"
	"io"
	"testing"

	"xkblas/internal/baseline"
	"xkblas/internal/bench"
	"xkblas/internal/blasops"
	"xkblas/internal/device"
	"xkblas/internal/policy"
	"xkblas/internal/topology"
	"xkblas/internal/xkrt"
)

const (
	benchN  = 16384
	benchNB = 2048
)

func runLib(b *testing.B, lib baseline.Library, req baseline.Request) {
	b.Helper()
	var last baseline.Result
	for i := 0; i < b.N; i++ {
		last = lib.Run(req)
	}
	if last.Err != nil {
		b.Fatalf("%s: %v", lib.Name(), last.Err)
	}
	b.ReportMetric(last.GFlops, "model-GF/s")
}

// BenchmarkFig2BandwidthMatrix regenerates the pairwise bandwidth matrix.
func BenchmarkFig2BandwidthMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig2BandwidthMatrix(io.Discard, bench.Config{})
	}
}

// BenchmarkFig3Ablation reproduces the heuristics ablation on the three
// routines of Fig. 3 (data-on-host, N=16384).
func BenchmarkFig3Ablation(b *testing.B) {
	libs := []baseline.Library{
		baseline.CuBLASXT(),
		baseline.XKBlas(),
		baseline.XKBlasNoHeuristic(),
		baseline.XKBlasNoHeuristicNoTopo(),
	}
	for _, r := range []blasops.Routine{blasops.Gemm, blasops.Syr2k, blasops.Trsm} {
		for _, lib := range libs {
			b.Run(r.String()+"/"+lib.Name(), func(b *testing.B) {
				runLib(b, lib, baseline.Request{Routine: r, N: benchN, NB: benchNB})
			})
		}
	}
}

// BenchmarkTable2DoDGain measures the data-on-device gain over data-on-host
// (the first column of Table II).
func BenchmarkTable2DoDGain(b *testing.B) {
	for _, r := range []blasops.Routine{blasops.Gemm, blasops.Syr2k, blasops.Trsm} {
		for _, sc := range []baseline.Scenario{baseline.DataOnHost, baseline.DataOnDevice} {
			b.Run(r.String()+"/"+sc.String(), func(b *testing.B) {
				runLib(b, baseline.XKBlas(), baseline.Request{Routine: r, N: benchN, NB: benchNB, Scenario: sc})
			})
		}
	}
}

// BenchmarkFig4DataOnDevice runs the Fig. 4 reference set.
func BenchmarkFig4DataOnDevice(b *testing.B) {
	for _, r := range []blasops.Routine{blasops.Gemm, blasops.Syr2k, blasops.Trsm} {
		b.Run(r.String()+"/XKBlas-DoD", func(b *testing.B) {
			runLib(b, baseline.XKBlas(), baseline.Request{
				Routine: r, N: benchN, NB: benchNB, Scenario: baseline.DataOnDevice})
		})
		b.Run(r.String()+"/ChameleonTile-host", func(b *testing.B) {
			runLib(b, baseline.ChameleonTile(), baseline.Request{Routine: r, N: benchN, NB: benchNB})
		})
	}
}

// BenchmarkFig5 covers the full library roster on all six routines
// (data-on-host, N=16384; cmd/xkbench sweeps the paper's full size range).
func BenchmarkFig5(b *testing.B) {
	for _, r := range blasops.All() {
		for _, lib := range bench.Roster() {
			if !lib.Supports(r) {
				continue
			}
			b.Run(r.String()+"/"+lib.Name(), func(b *testing.B) {
				runLib(b, lib, baseline.Request{Routine: r, N: benchN, NB: benchNB})
			})
		}
	}
}

// BenchmarkFig6TraceGEMM regenerates the GEMM trace breakdown.
func BenchmarkFig6TraceGEMM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig6(io.Discard, bench.Config{}, true)
	}
}

// BenchmarkFig7TraceSYR2K regenerates the per-GPU SYR2K traces.
func BenchmarkFig7TraceSYR2K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig7(io.Discard, bench.Config{}, true)
	}
}

// BenchmarkFig8Composition measures the TRSM+GEMM composition for the two
// libraries of Fig. 8.
func BenchmarkFig8Composition(b *testing.B) {
	for _, lib := range []baseline.Library{baseline.XKBlas(), baseline.ChameleonTile()} {
		comp := lib.(baseline.Composer)
		b.Run(lib.Name(), func(b *testing.B) {
			var last baseline.Result
			for i := 0; i < b.N; i++ {
				last = comp.RunComposition(baseline.Request{Routine: blasops.Gemm, N: benchN, NB: benchNB})
			}
			if last.Err != nil {
				b.Fatal(last.Err)
			}
			b.ReportMetric(last.GFlops, "model-GF/s")
		})
	}
}

// BenchmarkFig9Gantt renders the composition Gantt charts.
func BenchmarkFig9Gantt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig9(io.Discard, bench.Config{}, true)
	}
}

// xkblasWith builds an XKBlas variant over the given policy bundle and
// pipeline window for the ablation benches.
func xkblasWith(name string, window int, pol policy.Bundle) baseline.Library {
	return &baseline.StdLib{LibName: name, Routines: blasops.All(),
		Opts: xkrt.Options{Window: window, Policy: &pol}}
}

// BenchmarkAblationScheduler compares XKaapi work stealing against DMDAS on
// the same XKBLAS algorithms (DESIGN.md §5).
func BenchmarkAblationScheduler(b *testing.B) {
	for _, r := range []blasops.Routine{blasops.Gemm, blasops.Syr2k} {
		b.Run(r.String()+"/work-stealing", func(b *testing.B) {
			runLib(b, baseline.XKBlas(), baseline.Request{Routine: r, N: benchN, NB: benchNB})
		})
		b.Run(r.String()+"/dmdas", func(b *testing.B) {
			lib := xkblasWith("XKBlas-dmdas", 4, policy.XKBlasDMDAS)
			runLib(b, lib, baseline.Request{Routine: r, N: benchN, NB: benchNB})
		})
	}
}

// BenchmarkAblationWindow varies the per-device pipeline depth: window 1
// disables transfer/kernel overlap (single-stream behaviour, §II-B).
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("window%d", w), func(b *testing.B) {
			lib := xkblasWith("XKBlas-window", w, policy.XKBlas)
			runLib(b, lib, baseline.Request{Routine: blasops.Gemm, N: benchN, NB: benchNB})
		})
	}
}

// BenchmarkAblationSourcePolicy quantifies what each source restriction
// costs: any peer, same-switch only (BLASX), host only (cuBLAS-XT/SLATE).
func BenchmarkAblationSourcePolicy(b *testing.B) {
	cases := []struct {
		name string
		src  policy.SourceSelector
	}{
		{"any-peer", policy.TopoRank{}},
		{"same-switch", policy.SameSwitch{Base: policy.TopoRank{}}},
		{"host-only", policy.HostOnly{}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			pol := policy.XKBlas
			pol.Source = policy.Optimistic{Base: c.src, Ranked: true}
			lib := xkblasWith("XKBlas-"+c.name, 4, pol)
			runLib(b, lib, baseline.Request{Routine: blasops.Gemm, N: benchN, NB: benchNB})
		})
	}
}

// BenchmarkExtensionHermitian measures the complex routines completing the
// "9 standard BLAS subroutines" (§IV-D).
func BenchmarkExtensionHermitian(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Hermitian(io.Discard, bench.Config{}, true)
	}
}

// BenchmarkExtensionFactorizations measures POTRF/GETRF and the async-vs-
// fork-join composition benefit.
func BenchmarkExtensionFactorizations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Factorizations(io.Discard, bench.Config{}, true)
	}
}

// BenchmarkExtensionPinning measures the §IV-A pinning-cost note.
func BenchmarkExtensionPinning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.PinningCost(io.Discard, bench.Config{}, true)
	}
}

// BenchmarkExtensionScalability measures DGEMM strong scaling over 1..8
// GPUs.
func BenchmarkExtensionScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Scalability(io.Discard, bench.Config{}, true)
	}
}

// BenchmarkAblationLinkModel compares FIFO link serialization against
// processor-sharing multiplexing: the headline comparison must be robust
// to the contention model choice.
func BenchmarkAblationLinkModel(b *testing.B) {
	for _, lm := range []struct {
		name string
		m    device.LinkModel
	}{{"fifo", device.LinksFIFO}, {"fair-share", device.LinksFairShare}} {
		for _, lib := range []baseline.Library{baseline.XKBlas(), baseline.CuBLASXT()} {
			b.Run(lm.name+"/"+lib.Name(), func(b *testing.B) {
				runLib(b, lib, baseline.Request{
					Routine: blasops.Gemm, N: benchN, NB: benchNB, Links: lm.m})
			})
		}
	}
}

// BenchmarkAblationSummitOptimistic tests the paper's §III-C prediction:
// on a node with NVLink between CPU and GPUs (Summit), the optimistic
// heuristic's gain should shrink because the host link is no longer the
// bottleneck.
func BenchmarkAblationSummitOptimistic(b *testing.B) {
	platforms := map[string]*topology.Platform{
		"dgx1":   topology.DGX1(),
		"summit": topology.SummitNode(),
	}
	for name, plat := range platforms {
		for _, lib := range []baseline.Library{baseline.XKBlas(), baseline.XKBlasNoHeuristic()} {
			b.Run(name+"/"+lib.Name(), func(b *testing.B) {
				runLib(b, lib, baseline.Request{
					Routine: blasops.Gemm, N: benchN, NB: benchNB, Platform: plat})
			})
		}
	}
}
