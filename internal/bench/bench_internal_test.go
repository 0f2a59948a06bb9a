package bench

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
)

func TestMeanCI(t *testing.T) {
	m, ci := meanCI([]float64{10, 10, 10})
	if m != 10 || ci != 0 {
		t.Fatalf("constant samples: mean=%g ci=%g", m, ci)
	}
	m, ci = meanCI([]float64{9, 11})
	if m != 10 || ci <= 0 {
		t.Fatalf("spread samples: mean=%g ci=%g", m, ci)
	}
	if m, ci = meanCI(nil); m != 0 || ci != 0 {
		t.Fatal("empty samples should be zero")
	}
}

func TestMeasurePointPicksBestTile(t *testing.T) {
	cfg := Config{Tiles: []int{1024, 4096}, Runs: 1}
	p := MeasurePoint(cfg, baseline.XKBlas(), blasops.Gemm, 16384)
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if p.NB != 1024 && p.NB != 4096 {
		t.Fatalf("best NB = %d not among candidates", p.NB)
	}
	if p.GFlops <= 0 {
		t.Fatal("no throughput measured")
	}
}

func TestMeasurePointRespectsTileCap(t *testing.T) {
	cfg := Config{Tiles: []int{512}, Runs: 1, MaxTilesPerDim: 4}
	p := MeasurePoint(cfg, baseline.XKBlas(), blasops.Gemm, 16384)
	if p.Err == nil {
		t.Fatal("512-tile on N=16384 exceeds the 4-tiles-per-dim cap; expected error")
	}
}

func TestMeasurePointDeterministicWithoutNoise(t *testing.T) {
	cfg := Config{Tiles: []int{2048}, Runs: 3}
	a := MeasurePoint(cfg, baseline.XKBlas(), blasops.Gemm, 8192)
	b := MeasurePoint(cfg, baseline.XKBlas(), blasops.Gemm, 8192)
	if a.GFlops != b.GFlops {
		t.Fatalf("noise-free measurements differ: %g vs %g", a.GFlops, b.GFlops)
	}
	if a.CI95 > 1e-9 {
		t.Fatalf("noise-free CI should collapse to ~0, got %g", a.CI95)
	}
}

func TestNoiseWidensCI(t *testing.T) {
	cfg := Config{Tiles: []int{2048}, Runs: 4, NoiseAmp: 0.02}
	p := MeasurePoint(cfg, baseline.XKBlas(), blasops.Gemm, 8192)
	if p.CI95 <= 0 {
		t.Fatal("jittered runs should produce a positive CI")
	}
	if p.CI95 > p.GFlops*0.1 {
		t.Fatalf("CI suspiciously wide: %g of %g", p.CI95, p.GFlops)
	}
}

func TestRunSweepAndCSV(t *testing.T) {
	cfg := Config{
		Libs:     []baseline.Library{baseline.XKBlas(), baseline.BLASX()},
		Routines: []blasops.Routine{blasops.Gemm, blasops.Trsm},
		Sizes:    []int{8192},
		Tiles:    []int{2048},
		Runs:     1,
	}
	pts := RunSweep(cfg)
	// BLASX skips TRSM → 2 + 1 points.
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "routine,library,n,nb,gflops") {
		t.Fatal("missing CSV header")
	}
	if strings.Count(out, "\n") != 4 {
		t.Fatalf("CSV rows = %d, want 4 (header + 3)", strings.Count(out, "\n"))
	}
}

func TestSeriesExtraction(t *testing.T) {
	pts := []Point{
		{Lib: "X", Routine: blasops.Gemm, N: 16384, GFlops: 2},
		{Lib: "X", Routine: blasops.Gemm, N: 8192, GFlops: 1},
		{Lib: "Y", Routine: blasops.Gemm, N: 8192, GFlops: 9},
	}
	ns, gf := Series(pts, "X", blasops.Gemm)
	if len(ns) != 2 || ns[0] != 8192 || gf[1] != 2 {
		t.Fatalf("series = %v %v", ns, gf)
	}
}

func TestFig2MatrixShape(t *testing.T) {
	rows := Fig2BandwidthMatrix(io.Discard, Config{})
	if len(rows) != 11 { // title + header + 8 GPUs + host
		t.Fatalf("matrix rows = %d, want 11", len(rows))
	}
	// Spot-check a 2xNVLink entry: row 0, col 3 ≈ 96 GB/s.
	if v := rows[2].Values; len(v) != 9 || math.Abs(v[3]-96.4) > 3 {
		t.Fatalf("row 0 = %v, want 9 values with link 0->3 ≈96 GB/s (Fig. 2)", v)
	}
}
