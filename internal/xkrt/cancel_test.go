package xkrt

import (
	"context"
	"errors"
	"testing"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/check"
	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// newCancelRig builds a timing-mode runtime on a DGX-1 with the coherence
// auditor attached in record mode and submits a serialized GEMM workload
// (an RW chain per row tile) long enough for a mid-run cancellation to
// land with transfers and kernels genuinely in flight.
func newCancelRig(t *testing.T) (*sim.Engine, *Runtime, *check.Auditor) {
	t.Helper()
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	rt := New(eng, plat, false, DefaultOptions())
	a := check.New(false)
	rt.AttachAuditor(a)

	const nb, nt = 64, 4
	A := rt.Register(matrix.New(nb*nt, nb*nt), nb)
	C := rt.Register(matrix.New(nb*nt, nb*nt), nb)
	spec := KernelSpec{
		Routine: blasops.Gemm, M: nb, N: nb, K: nb,
		Flops: 2 * float64(nb) * float64(nb) * float64(nb),
	}
	for k := 0; k < 24; k++ {
		for i := 0; i < nt; i++ {
			rt.Submit("cancel-load", spec, 0,
				R(A.Tile(i, k%nt)), RW(C.Tile(i, i)))
		}
	}
	return eng, rt, a
}

func TestCancelMidRunDrainsAtCurrentTime(t *testing.T) {
	// Reference makespan of the uncancelled workload.
	_, ref, _ := newCancelRig(t)
	full := ref.Barrier()
	if err := ref.Err(); err != nil {
		t.Fatalf("reference run failed: %v", err)
	}
	if full <= 0 {
		t.Fatal("reference run has zero makespan")
	}

	eng, rt, audit := newCancelRig(t)
	cause := context.DeadlineExceeded
	cut := full / 2
	eng.At(cut, func() { rt.Cancel(cause) })
	end := rt.Barrier()

	if end != cut {
		t.Fatalf("cancelled Barrier returned at %v, want the cancellation instant %v", end, cut)
	}
	if rt.Pending() == 0 {
		t.Fatal("cancellation landed after the graph drained — workload too short to test mid-run abort")
	}
	err := rt.Err()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("run error = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run error = %v does not unwrap to the cancellation cause", err)
	}
	if !audit.Ok() {
		t.Fatalf("auditor rejected the cancelled drain: %v", audit.Violations())
	}
	// A second Barrier on the cancelled runtime must return immediately
	// with the same error, not deadlock or panic.
	if again := rt.Barrier(); again != end {
		t.Fatalf("repeated Barrier moved the clock: %v -> %v", end, again)
	}
}

func TestCancelAfterDrainIsMoot(t *testing.T) {
	_, rt, audit := newCancelRig(t)
	end := rt.Barrier()
	rt.Cancel(context.Canceled)
	if err := rt.Err(); err != nil {
		t.Fatalf("cancel after a clean drain must not fail the run: %v", err)
	}
	if again := rt.Barrier(); again != end {
		t.Fatalf("post-cancel Barrier moved the clock: %v -> %v", end, again)
	}
	if !audit.Ok() {
		t.Fatalf("auditor violations: %v", audit.Violations())
	}
}

// TestCancelSweepsSyntheticChainMarks verifies the waiter-unwedging
// cascade: a synthetic under-transfer record registered for an optimistic
// chain whose upstream never lands must be cancelled by the run
// cancellation, notifying its piggybacked waiters with the run error.
func TestCancelSweepsSyntheticChainMarks(t *testing.T) {
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	rt := New(eng, plat, false, DefaultOptions())
	c := rt.Cache
	T := c.NewTile(cache.TileKey{Mat: c.NewMatrixID()}, matrix.NewShape(64, 64))

	// A chain hop toward GPU 1 whose upstream (GPU 2) never produces data.
	c.MarkInflight(T, 1)
	rt.chains = append(rt.chains, chainMark{tile: T, dst: 1})
	var waiterErr error
	T.AddInflightWaiter(1, waiterFunc(func(err error) { waiterErr = err }))

	rt.PendingExternal(1) // keep the graph un-drained, as real tasks would
	cause := context.Canceled
	rt.Cancel(cause)
	rt.Barrier()

	if T.InflightTo(1) {
		t.Fatal("synthetic under-transfer record survived the cancellation")
	}
	if waiterErr == nil || !errors.Is(waiterErr, ErrCanceled) {
		t.Fatalf("piggybacked waiter notified with %v, want ErrCanceled", waiterErr)
	}
	if err := rt.Err(); !errors.Is(err, cause) {
		t.Fatalf("run error = %v, want to unwrap to %v", err, cause)
	}
}

// TestCancelFromWatchdogGoroutine drives the cross-goroutine protocol a
// request-context watchdog uses: only Cancel is called off the simulation
// goroutine; all graph surgery stays on it (run under -race).
func TestCancelFromWatchdogGoroutine(t *testing.T) {
	eng, rt, audit := newCancelRig(t)
	started := make(chan struct{})
	cancelled := make(chan struct{})
	eng.At(0.000001, func() {
		close(started)
		<-cancelled // hold the sim goroutine until the watchdog acted
	})
	go func() {
		<-started
		rt.Cancel(context.Canceled)
		close(cancelled)
	}()
	rt.Barrier()
	if err := rt.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("run error = %v, want ErrCanceled", err)
	}
	if !audit.Ok() {
		t.Fatalf("auditor violations: %v", audit.Violations())
	}
}

// TestCanceledErrorMatching pins the errors.Is/Unwrap contract callers
// rely on to distinguish deadline from interrupt.
func TestCanceledErrorMatching(t *testing.T) {
	e := &CanceledError{Cause: context.DeadlineExceeded}
	if !errors.Is(e, ErrCanceled) {
		t.Fatal("CanceledError must match ErrCanceled")
	}
	if !errors.Is(e, context.DeadlineExceeded) {
		t.Fatal("CanceledError must unwrap to its cause")
	}
	if errors.Is(e, context.Canceled) {
		t.Fatal("deadline-caused cancellation must not match context.Canceled")
	}
	bare := &CanceledError{}
	if !errors.Is(bare, ErrCanceled) || bare.Error() == "" {
		t.Fatal("cause-less CanceledError must still match and describe itself")
	}
}

// TestCancelStopsStreamAdmission: a streamed generator cancelled
// mid-generation keeps the window's bound. A stopped engine frees no
// window room, so every later submission that finds the window full is
// dropped unadmitted instead of growing the graph; the generator runs to
// its end cheaply and Barrier reports the cancellation.
func TestCancelStopsStreamAdmission(t *testing.T) {
	const window, nt, nb = 16, 8, 64
	spec := KernelSpec{
		Routine: blasops.Gemm, M: nb, N: nb, K: nb,
		Flops: 2 * float64(nb) * float64(nb) * float64(nb),
	}
	gemm := func(cut sim.Time) *Runtime {
		eng := sim.NewEngine()
		opt := DefaultOptions()
		opt.StreamWindow = window
		rt := New(eng, device.NewPlatform(eng, topology.DGX1()), false, opt)
		if cut > 0 {
			eng.At(cut, func() { rt.Cancel(context.Canceled) })
		}
		a := rt.Register(matrix.NewShape(nt*nb, nt*nb), nb)
		b := rt.Register(matrix.NewShape(nt*nb, nt*nb), nb)
		c := rt.Register(matrix.NewShape(nt*nb, nt*nb), nb)
		for i := 0; i < nt; i++ {
			for j := 0; j < nt; j++ {
				for k := 0; k < nt; k++ {
					rt.Submit("sgemm", spec, 0, RW(c.Tile(i, j)), R(a.Tile(i, k)), R(b.Tile(k, j)))
				}
				rt.SubmitFlush(c.Tile(i, j))
			}
		}
		rt.Barrier()
		return rt
	}
	ref := gemm(0)
	if err := ref.Err(); err != nil {
		t.Fatalf("uncancelled run failed: %v", err)
	}
	if ref.TasksLiveMax() > window {
		t.Fatalf("uncancelled run: peak live tasks %d exceed the window %d", ref.TasksLiveMax(), window)
	}
	rt := gemm(ref.Eng.Now() / 4)
	if err := rt.Err(); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("run error = %v, want a cancellation", err)
	}
	if run, total := rt.Stats().TasksRun, ref.Stats().TasksRun; run == 0 || run >= total {
		t.Fatalf("cancelled run retired %d of %d tasks: the cancellation missed the generation", run, total)
	}
	if got := rt.TasksLiveMax(); got > window {
		t.Fatalf("cancelled run: peak live tasks %d exceed the window %d", got, window)
	}
}
