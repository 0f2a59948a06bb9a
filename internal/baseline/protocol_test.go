package baseline

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xkblas/internal/blasops"
	"xkblas/internal/core"
	"xkblas/internal/sim"
	"xkblas/internal/trace"
	"xkblas/internal/xkrt"
)

// TestCallProtocol checks the measurement protocol every driver shares
// through StdLib.Call, once for all of them:
//   - a request whose context is already cancelled returns an error that
//     matches both xkrt.ErrCanceled and context.Canceled, from every
//     driver and from Call with a custom body, without running the body
//     or taking an idle context;
//   - a body that panics returns an error that carries the run's recorder,
//     and its context is dropped instead of returned to the pool, while a
//     clean body's context is returned.
func TestCallProtocol(t *testing.T) {
	holdIdle(t)
	plat := freshPlatform()
	xk := XKBlas().(*StdLib)
	ran := false
	drivers := []struct {
		name string
		run  func(Request) Result
	}{
		{"standard", xk.Run},
		{"Chameleon LAPACK", ChameleonLAPACK().Run},
		{"composition", xk.RunComposition},
		{"fused", func(req Request) Result { return xk.RunFused(req, 2) }},
		{"batched", func(req Request) Result {
			return xk.RunBatched(req, blasops.UniformBatch(blasops.Gemm, 2, 256, 256, 256), DispatchAuto)
		}},
		{"SLATE GEMM", Slate().Run},
		{"cuBLAS-MG", CuBLASMG().Run},
		{"Call", func(req Request) Result {
			return xk.Call(req, func(h *core.Handle, _ *trace.Recorder) (sim.Time, float64) {
				ran = true
				return h.Now(), 1
			})
		}},
	}

	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		// Park a context in the pool: a driver that took it would leave the
		// pool without it.
		parked := acquire(Request{Platform: plat, NB: 1024}, xk.Opts, 0)
		parked.release(Request{}, nil)
		for _, d := range drivers {
			res := d.run(Request{Routine: blasops.Gemm, N: 2048, NB: 1024, Platform: plat, Ctx: ctx})
			if !errors.Is(res.Err, xkrt.ErrCanceled) || !errors.Is(res.Err, context.Canceled) {
				t.Errorf("%s: error %v, want one matching xkrt.ErrCanceled and context.Canceled", d.name, res.Err)
			}
			if !raceEnabled && peekIdle() != parked {
				t.Errorf("%s: a cancelled request took the idle context", d.name)
			}
		}
		if ran {
			t.Error("Call ran the body of a cancelled request")
		}
	})

	t.Run("panic", func(t *testing.T) {
		var used *core.Handle
		res := xk.Call(Request{NB: 1024, Platform: plat, Trace: true}, func(h *core.Handle, _ *trace.Recorder) (sim.Time, float64) {
			used = h
			panic("boom")
		})
		if res.Err == nil || !strings.Contains(res.Err.Error(), "boom") {
			t.Fatalf("panicking body: error %v, want the recovered panic", res.Err)
		}
		if res.Rec == nil {
			t.Error("panicking body: the error lost the recorder")
		}
		if c := peekIdle(); c != nil && c.h == used {
			t.Error("panicking body: its context went back to the idle pool")
		}
		res = xk.Call(Request{NB: 1024, Platform: plat}, func(h *core.Handle, _ *trace.Recorder) (sim.Time, float64) {
			used = h
			return h.Now(), 1
		})
		if res.Err != nil {
			t.Fatalf("clean body: %v", res.Err)
		}
		if c := peekIdle(); !raceEnabled && (c == nil || c.h != used) {
			t.Error("clean body: its context did not go back to the idle pool")
		}
	})
}
