package baseline

import (
	"testing"

	"xkblas/internal/blasops"
	"xkblas/internal/topology"
	"xkblas/internal/trace"
)

// Per-library policy behaviours, verified through traces and cache
// statistics rather than just throughput.

func traceOf(t *testing.T, lib Library, req Request) Result {
	t.Helper()
	req.Trace = true
	res := lib.Run(req)
	if res.Err != nil {
		t.Fatalf("%s: %v", lib.Name(), res.Err)
	}
	return res
}

func TestCuBLASXTNeverUsesPeerTransfers(t *testing.T) {
	res := traceOf(t, CuBLASXT(), Request{Routine: blasops.Gemm, N: 16384, NB: 2048})
	if res.Cache.P2PCount != 0 {
		t.Fatalf("cuBLAS-XT issued %d peer transfers; its policy is host-only", res.Cache.P2PCount)
	}
}

func TestSlateNeverUsesPeerTransfers(t *testing.T) {
	res := traceOf(t, Slate(), Request{Routine: blasops.Gemm, N: 16384, NB: 2048})
	if res.Cache.P2PCount != 0 {
		t.Fatalf("Slate issued %d peer transfers; §IV-D says all its traffic crosses PCIe", res.Cache.P2PCount)
	}
}

func TestBLASXPeerTransfersStayOnSwitch(t *testing.T) {
	res := traceOf(t, BLASX(), Request{Routine: blasops.Gemm, N: 16384, NB: 2048})
	topo := topology.DGX1()
	peer := 0
	for _, ev := range res.Rec.Events {
		if ev.Kind != trace.OpPtoP {
			continue
		}
		peer++
	}
	// The two-level cache exploits the same-switch neighbour, so peer
	// traffic exists but the cache stats must match the trace.
	if int64(peer) != res.Cache.P2PCount {
		t.Fatalf("trace peer events %d != cache P2P count %d", peer, res.Cache.P2PCount)
	}
	_ = topo
	if res.Cache.P2PCount == 0 {
		t.Log("no same-switch reuse arose at this size (acceptable)")
	}
}

func TestCuBLASXTStreamingRaisesHostTraffic(t *testing.T) {
	// Streaming eviction (cuBLAS-XT) must move at least as many H2D
	// bytes as a caching host-only policy, and strictly more at sizes with
	// reuse.
	streaming := CuBLASXT().Run(Request{Routine: blasops.Gemm, N: 24576, NB: 2048})
	caching := (&StdLib{
		LibName:  "host-only-cached",
		Routines: allSix,
		Opts:     slateOpts(), // host-only, but no eviction
	}).Run(Request{Routine: blasops.Gemm, N: 24576, NB: 2048})
	if streaming.Err != nil || caching.Err != nil {
		t.Fatalf("errors: %v %v", streaming.Err, caching.Err)
	}
	if streaming.Cache.H2DBytes <= caching.Cache.H2DBytes {
		t.Fatalf("streaming H2D %d should exceed caching H2D %d",
			streaming.Cache.H2DBytes, caching.Cache.H2DBytes)
	}
}

func TestXKBlasMinimalHostTraffic(t *testing.T) {
	// With the optimistic heuristic, each input tile crosses PCIe exactly
	// once: H2D bytes = 3·N²·8 for GEMM (A, B and C in).
	res := XKBlas().Run(Request{Routine: blasops.Gemm, N: 16384, NB: 2048})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want := int64(3) * 16384 * 16384 * 8
	if res.Cache.H2DBytes != want {
		t.Fatalf("XKBlas H2D bytes = %d, want exactly %d (one PCIe crossing per tile)",
			res.Cache.H2DBytes, want)
	}
	// And the result comes back once.
	if res.Cache.D2HBytes != want/3 {
		t.Fatalf("D2H bytes = %d, want %d", res.Cache.D2HBytes, want/3)
	}
}

func TestAllComposersComplete(t *testing.T) {
	libs := []Library{XKBlas(), ChameleonTile(), ChameleonLAPACK(), CuBLASXT(), Slate()}
	for _, lib := range libs {
		comp, ok := lib.(Composer)
		if !ok {
			t.Errorf("%s does not implement Composer", lib.Name())
			continue
		}
		res := comp.RunComposition(Request{Routine: blasops.Gemm, N: 8192, NB: 2048})
		if res.Err != nil {
			t.Errorf("%s composition: %v", lib.Name(), res.Err)
			continue
		}
		if res.GFlops <= 0 {
			t.Errorf("%s composition: degenerate throughput", lib.Name())
		}
	}
}

func TestInterCallBarrierCostsThroughput(t *testing.T) {
	noBarrier := &StdLib{LibName: "nb", Routines: allSix,
		Opts: XKBlas().(*StdLib).Opts}
	withBarrier := &StdLib{LibName: "wb", Routines: allSix,
		Opts: XKBlas().(*StdLib).Opts, InterCallBarrier: true}
	req := Request{Routine: blasops.Gemm, N: 16384, NB: 2048}
	a := noBarrier.RunComposition(req)
	b := withBarrier.RunComposition(req)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("errors: %v %v", a.Err, b.Err)
	}
	if a.GFlops <= b.GFlops {
		t.Fatalf("inter-call barrier should cost throughput: %.0f vs %.0f", a.GFlops, b.GFlops)
	}
}

func TestDataOnDeviceExcludesDistribution(t *testing.T) {
	// DoD traces must not contain the initial distribution's H2D events
	// (they are reset before the timed section).
	res := traceOf(t, XKBlas(), Request{Routine: blasops.Gemm, N: 8192, NB: 2048, Scenario: DataOnDevice})
	for _, ev := range res.Rec.Events {
		if ev.Kind == trace.OpHtoD {
			t.Fatalf("DoD trace contains HtoD event at %v; distribution leaked into measurement", ev.Start)
		}
	}
}

func TestScenarioString(t *testing.T) {
	if DataOnHost.String() != "data-on-host" || DataOnDevice.String() != "data-on-device" {
		t.Fatal("scenario names wrong")
	}
}

func TestChameleonLAPACKConversionScalesWithOperands(t *testing.T) {
	lib := ChameleonLAPACK().(*StdLib)
	threeOp := lib.Run(Request{Routine: blasops.Gemm, N: 16384, NB: 2048})
	twoOp := lib.Run(Request{Routine: blasops.Trmm, N: 16384, NB: 2048})
	if threeOp.Err != nil || twoOp.Err != nil {
		t.Fatalf("errors: %v %v", threeOp.Err, twoOp.Err)
	}
	// Indirect check: conversion adds (ops+1)·N²·8/ConvertGBs seconds.
	bytes := float64(16384) * 16384 * 8
	conv3 := 4 * bytes / (lib.ConvertGBs * 1e9)
	if float64(threeOp.Elapsed) < conv3 {
		t.Fatalf("GEMM elapsed %.3f below its conversion floor %.3f", float64(threeOp.Elapsed), conv3)
	}
}
