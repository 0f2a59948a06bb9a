package baseline

import (
	"testing"

	"xkblas/internal/blasops"
)

func fusedReq(n, nb int) Request {
	return Request{Routine: blasops.Gemm, N: n, NB: nb, Scenario: DataOnHost}
}

// TestRunFusedSingletonMatchesRun pins that a fused batch of one is the
// standard data-on-host protocol: same submit/coherent/sync sequence, same
// virtual timeline.
func TestRunFusedSingletonMatchesRun(t *testing.T) {
	lib := XKBlas().(*StdLib)
	solo := lib.Run(fusedReq(1024, 512))
	if solo.Err != nil {
		t.Fatal(solo.Err)
	}
	fused := lib.RunFused(fusedReq(1024, 512), 1)
	if fused.Err != nil {
		t.Fatal(fused.Err)
	}
	if solo.Elapsed != fused.Elapsed {
		t.Fatalf("fused batch of 1 took %v, standalone run %v — must be identical", fused.Elapsed, solo.Elapsed)
	}
}

// TestRunFusedAmortizes pins the point of batching: k instances fused into
// one DAG finish faster than k back-to-back standalone runs (pipelines
// overlap across instances), while doing the same useful work.
func TestRunFusedAmortizes(t *testing.T) {
	lib := XKBlas().(*StdLib)
	const k = 6
	solo := lib.Run(fusedReq(512, 512))
	if solo.Err != nil {
		t.Fatal(solo.Err)
	}
	fused := lib.RunFused(fusedReq(512, 512), k)
	if fused.Err != nil {
		t.Fatal(fused.Err)
	}
	if fused.Elapsed >= solo.Elapsed*k {
		t.Fatalf("fused batch of %d took %v, not faster than %d standalone runs (%v)",
			k, fused.Elapsed, k, solo.Elapsed*k)
	}
	if fused.Elapsed <= solo.Elapsed {
		t.Fatalf("fused batch of %d took %v, suspiciously not slower than one run (%v)",
			k, fused.Elapsed, solo.Elapsed)
	}
}

// TestRunFusedDeterministicAcrossPool pins that a fused batch on a recycled
// context reproduces a fresh context's timeline bit for bit — the property
// the serving front end's demand memoization rests on.
func TestRunFusedDeterministicAcrossPool(t *testing.T) {
	lib := XKBlas().(*StdLib)
	freshReq := fusedReq(512, 512)
	freshReq.Platform = freshPlatform()
	fresh := lib.RunFused(freshReq, 4)
	if fresh.Err != nil {
		t.Fatal(fresh.Err)
	}
	req := fusedReq(512, 512)
	req.Platform = freshPlatform()
	// Leave an idle context of a different shape, so the fused run
	// recycles a reset, retargeted one.
	if res := lib.Run(Request{Routine: blasops.Gemm, N: 2048, NB: 1024, Scenario: DataOnHost, Platform: req.Platform}); res.Err != nil {
		t.Fatal(res.Err)
	}
	pooled := lib.RunFused(req, 4)
	if pooled.Err != nil {
		t.Fatal(pooled.Err)
	}
	if pooled.Elapsed != fresh.Elapsed {
		t.Fatalf("pooled fused run took %v, fresh %v — recycled handles must be bit-identical", pooled.Elapsed, fresh.Elapsed)
	}
}

// TestRunFusedRejectsBadRequests covers the typed failure paths.
func TestRunFusedRejectsBadRequests(t *testing.T) {
	lib := XKBlas().(*StdLib)
	if res := lib.RunFused(fusedReq(512, 512), 0); res.Err == nil {
		t.Fatal("count 0 must fail")
	}
	bad := fusedReq(512, 512)
	bad.Scenario = DataOnDevice
	if res := lib.RunFused(bad, 2); res.Err == nil {
		t.Fatal("data-on-device fused batch must fail")
	}
}
