package bench

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
)

// cancelStubLib is a deterministic fake library: leaves below Block return
// instantly with a value computed from (N, NB); leaves at or above Block
// announce themselves on BlockedC and then wait for the request context to
// fire. It lets the tests stage a cancellation at an exact sweep position
// without depending on wall-clock timing.
type cancelStubLib struct {
	Block    int
	BlockedC chan struct{}
}

func (l cancelStubLib) Name() string                    { return "CancelStub" }
func (l cancelStubLib) Supports(r blasops.Routine) bool { return true }

func (l cancelStubLib) Run(req baseline.Request) baseline.Result {
	if req.Ctx != nil {
		if err := req.Ctx.Err(); err != nil {
			return baseline.Result{Err: err}
		}
		if l.Block > 0 && req.N >= l.Block {
			select {
			case l.BlockedC <- struct{}{}:
			default:
			}
			<-req.Ctx.Done()
			return baseline.Result{Err: req.Ctx.Err()}
		}
	}
	return baseline.Result{Elapsed: 1, GFlops: float64(req.N) + float64(req.NB)/1e4}
}

func stubConfig(lib baseline.Library) Config {
	return Config{
		Libs:     []baseline.Library{lib},
		Routines: []blasops.Routine{blasops.Gemm},
		Sizes:    []int{100, 200, 300, 400},
		Tiles:    []int{32, 64},
		Runs:     2,
	}
}

// assertCanceledTail checks the partial-prefix contract: points[:cut]
// bit-identical to the uncancelled reference, every point from cut on
// carrying context.Canceled, with the cut position monotonic.
func assertCanceledTail(t *testing.T, label string, ref, pts []Point) int {
	t.Helper()
	if len(pts) != len(ref) {
		t.Fatalf("%s: %d points, want one per plan (%d)", label, len(pts), len(ref))
	}
	cut := len(pts)
	for i, p := range pts {
		if leafCanceled(p.Err) {
			cut = i
			break
		}
	}
	pointsIdentical(t, label+" prefix", ref[:cut], pts[:cut])
	for i := cut; i < len(pts); i++ {
		p := pts[i]
		if !errors.Is(p.Err, context.Canceled) {
			t.Fatalf("%s: point %d after the cut has Err = %v, want context.Canceled", label, i, p.Err)
		}
		if p.NB != 0 || p.GFlops != 0 || p.Runs != 0 {
			t.Fatalf("%s: cancelled point %d carries measurement values: %+v", label, i, p)
		}
		if p.Lib != ref[i].Lib || p.Routine != ref[i].Routine || p.N != ref[i].N {
			t.Fatalf("%s: cancelled point %d lost its identity: %+v vs %+v", label, i, p, ref[i])
		}
	}
	return cut
}

func TestRunSweepCancelPartialPrefixSequential(t *testing.T) {
	ref := RunSweep(stubConfig(cancelStubLib{}))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocked := make(chan struct{}, 16)
	go func() {
		<-blocked
		cancel()
	}()
	cfg := stubConfig(cancelStubLib{Block: 300, BlockedC: blocked})
	cfg.Ctx = ctx
	pts := RunSweep(cfg)

	// Sequentially the cut position is exact: N=100 and N=200 complete,
	// N=300 blocks and is cancelled, N=400 is never attempted.
	cut := assertCanceledTail(t, "sequential", ref, pts)
	if cut != 2 {
		t.Fatalf("cut at point %d, want 2", cut)
	}
}

func TestRunSweepCancelPartialPrefixParallel(t *testing.T) {
	ref := RunSweep(stubConfig(cancelStubLib{}))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocked := make(chan struct{}, 16)
	go func() {
		<-blocked
		cancel()
	}()
	cfg := stubConfig(cancelStubLib{Block: 300, BlockedC: blocked})
	cfg.Ctx = ctx
	cfg.Parallel = 4
	pts := RunSweep(cfg)

	// With several workers the exact cut depends on which leaves were in
	// flight when the context fired, but the contract is the same:
	// a bit-identical completed prefix, then only cancelled points. The
	// blocking points can never complete, so the cut is at most 2.
	cut := assertCanceledTail(t, "parallel", ref, pts)
	if cut > 2 {
		t.Fatalf("cut at point %d, but the blocking points start at 2", cut)
	}
}

func TestMeasurePointPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := stubConfig(cancelStubLib{})
	cfg.Ctx = ctx
	p := MeasurePoint(cfg, cancelStubLib{}, blasops.Gemm, 100)
	if !errors.Is(p.Err, context.Canceled) {
		t.Fatalf("point error = %v, want context.Canceled", p.Err)
	}

	// The real library path: the request precheck must refuse to simulate.
	cfg.Libs = []baseline.Library{baseline.XKBlas()}
	start := time.Now()
	rp := MeasurePoint(cfg, baseline.XKBlas(), blasops.Gemm, 8192)
	if !errors.Is(rp.Err, context.Canceled) {
		t.Fatalf("real-library point error = %v, want context.Canceled", rp.Err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("pre-cancelled point still simulated (%v)", el)
	}
}

// TestRunSweepCancelRealLibraries cancels a real simulated sweep after the
// first committed point: the completed prefix must be bit-identical to the
// uncancelled sweep and the rest must carry context.Canceled. This drives
// the full path — cancellation hook, engine abort, runtime ErrCanceled,
// auditor-accepted cancelled drain.
func TestRunSweepCancelRealLibraries(t *testing.T) {
	base := Config{
		Libs:     []baseline.Library{baseline.XKBlas(), baseline.CuBLASXT()},
		Routines: []blasops.Routine{blasops.Gemm},
		Sizes:    []int{4096, 8192},
		Tiles:    []int{1024, 2048},
		Runs:     2,
		NoiseAmp: 0.02,
		Check:    true, // auditor must accept the cancelled drains
	}
	ref := RunSweep(base)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := base
	cfg.Ctx = ctx
	cfg.Progress = &cancelAfterLines{n: 1, cancel: cancel}
	pts := RunSweep(cfg)

	cut := assertCanceledTail(t, "real libraries", ref, pts)
	if cut != 1 {
		t.Fatalf("cut at point %d, want 1 (cancelled right after the first progress line)", cut)
	}
}

// cancelAfterLines is a Progress sink that fires a context cancellation
// after its n-th line — a deterministic mid-sweep cancellation trigger for
// a one-worker sweep.
type cancelAfterLines struct {
	n      int
	lines  int
	cancel context.CancelFunc
}

func (w *cancelAfterLines) Write(p []byte) (int, error) {
	w.lines++
	if w.lines == w.n {
		w.cancel()
	}
	return len(p), nil
}

// TestCancelledSweepLeaksNoGoroutines runs a cancelled parallel sweep of
// real libraries — worker goroutines, per-run cancellation hooks and all — and
// verifies every goroutine winds down afterwards.
func TestCancelledSweepLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	cfg := Config{
		Libs:     []baseline.Library{baseline.XKBlas()},
		Routines: []blasops.Routine{blasops.Gemm},
		Sizes:    []int{4096, 8192},
		Tiles:    []int{1024},
		Runs:     2,
		Parallel: 4,
		Ctx:      ctx,
	}
	pts := RunSweep(cfg)
	if len(pts) != 2 {
		t.Fatalf("points = %d, want one per plan", len(pts))
	}
	cancel()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked after cancelled sweep: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
