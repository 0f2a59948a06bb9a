package baseline

import (
	"fmt"

	"xkblas/internal/blasops"
	"xkblas/internal/xkrt"
)

// FusedRunner is implemented by libraries that can execute a batch of
// independent instances of one routine as a single fused job graph. The
// multi-tenant serving front end (internal/serve) uses it for its batching
// path: sub-threshold small requests from many tenants coalesce into one
// DAG, amortizing per-call transfers and filling the pipeline the way
// batched BLAS interfaces (KBLAS-style) do for real small-matrix traffic.
type FusedRunner interface {
	RunFused(req Request, count int) Result
}

// RunFused implements FusedRunner: count independent instances of the
// request's routine — each with its own operands — submitted back to back
// on one handle and drained by a single sync. Instances interleave their
// coherency write-back with the remaining computation (data-on-host
// protocol), so the fused graph overlaps one instance's D2H with the next
// instance's kernels. The measured interval covers every instance.
func (l *StdLib) RunFused(req Request, count int) (res Result) {
	if count < 1 {
		return Result{Err: fmt.Errorf("baseline: fused batch needs count >= 1, got %d", count)}
	}
	if !l.Supports(req.Routine) {
		return Result{Err: fmt.Errorf("%s does not implement %v", l.LibName, req.Routine)}
	}
	if req.Scenario != DataOnHost {
		return Result{Err: fmt.Errorf("baseline: fused batches support the data-on-host scenario only")}
	}
	if err := req.canceled(); err != nil {
		return Result{Err: &xkrt.CanceledError{Cause: err}}
	}
	c, rec := l.prepare(req)
	h := c.h
	defer func() { c.release(req, res.Err) }()
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: fmt.Errorf("baseline: %v", r), Rec: rec}
		}
	}()
	defer armCancel(req, h)()
	t0 := h.Now()
	for i := 0; i < count; i++ {
		ins, out := operands(h, req.Routine, req.N)
		submitRoutine(h, req.Routine, ins)
		h.MemoryCoherentAsync(out)
	}
	end := h.Sync()
	if err := h.RT.Err(); err != nil {
		return Result{Err: err, Rec: rec}
	}
	el := end - t0
	gf := blasops.GFlops(float64(count)*blasops.FlopsSquare(req.Routine, req.N), float64(el))
	if rec != nil {
		rec.Decisions = h.RT.Decisions()
	}
	return Result{Elapsed: el, GFlops: gf, Rec: rec, Cache: h.RT.Cache.Stats(),
		Decisions: h.RT.Decisions(), Metrics: collectMetrics(req, h, rec)}
}
