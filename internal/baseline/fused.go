package baseline

import (
	"fmt"

	"xkblas/internal/blasops"
	"xkblas/internal/core"
	"xkblas/internal/sim"
	"xkblas/internal/trace"
)

// RunFused executes count independent instances of the request's routine
// — each with its own operands — as one fused job graph: submitted back
// to back on one handle and drained by a single sync. The multi-tenant
// serving front end (internal/serve) batches coalesced small requests
// through it, amortizing per-call transfers and filling the pipeline the
// way batched BLAS interfaces (KBLAS-style) do. Instances interleave their
// coherency write-back with the remaining computation (data-on-host
// protocol), so the fused graph overlaps one instance's D2H with the next
// instance's kernels. The measured interval covers every instance.
func (l *StdLib) RunFused(req Request, count int) Result {
	if count < 1 {
		return Result{Err: fmt.Errorf("baseline: fused batch needs count >= 1, got %d", count)}
	}
	if !l.Supports(req.Routine) {
		return Result{Err: fmt.Errorf("%s does not implement %v", l.LibName, req.Routine)}
	}
	if req.Scenario != DataOnHost {
		return Result{Err: fmt.Errorf("baseline: fused batches support the data-on-host scenario only")}
	}
	return l.Call(req, func(h *core.Handle, _ *trace.Recorder) (sim.Time, float64) {
		start := h.Now()
		for i := 0; i < count; i++ {
			ins, out := operands(h, req.Routine, req.N)
			submitRoutine(h, req.Routine, ins)
			h.MemoryCoherentAsync(out)
		}
		return start, float64(count) * blasops.FlopsSquare(req.Routine, req.N)
	})
}
