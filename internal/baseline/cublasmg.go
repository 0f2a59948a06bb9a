package baseline

import (
	"fmt"

	"xkblas/internal/blasops"
	"xkblas/internal/core"
	"xkblas/internal/matrix"
	"xkblas/internal/policy"
	"xkblas/internal/xkrt"
)

// cublasMGLib models the cuBLAS-MG early-access library (§II-A): GEMM only,
// each matrix distributed over the devices in a 2D block-cyclic layout.
// For the paper's data-on-host methodology the distribution of the operands
// and the collection of the result are part of the call — and of the
// measured time — which is why cuBLAS-MG trails XKBlas by ~13% despite an
// efficient distributed kernel phase.
type cublasMGLib struct{}

// CuBLASMG returns the cuBLAS-MG model.
func CuBLASMG() Library { return cublasMGLib{} }

func (cublasMGLib) Name() string { return "cuBLAS-MG" }

func (cublasMGLib) Supports(r blasops.Routine) bool { return r == blasops.Gemm }

func (l cublasMGLib) Run(req Request) (res Result) {
	if req.Routine != blasops.Gemm {
		return Result{Err: fmt.Errorf("cuBLAS-MG only implements GEMM")}
	}
	if err := req.canceled(); err != nil {
		return Result{Err: &xkrt.CanceledError{Cause: err}}
	}
	// Peer transfers between the block-cyclic homes use NVLink when
	// available but without topology ranking or forwarding heuristics.
	c := acquire(req, xkrt.Options{Window: 3, Policy: &policy.NoHeuristicNoTopo}, 0)
	h := c.h
	rec := attachTrace(h, req)
	defer func() { c.release(req, res.Err) }()
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: fmt.Errorf("cublas-mg: %v", r), Rec: rec}
		}
	}()
	defer armCancel(req, h)()
	n := req.N
	A := h.Register(matrix.NewShape(n, n))
	B := h.Register(matrix.NewShape(n, n))
	C := h.Register(matrix.NewShape(n, n))
	p, q := 4, 2
	if g := len(h.Plat.GPUs); g != 8 {
		p, q = g, 1
	}
	t0 := h.Now()
	if req.Scenario == DataOnDevice {
		// Distribution outside the timed section, like the other DoD runs.
		for _, m := range []*xkrt.Matrix{A, B, C} {
			h.Distribute2DBlockCyclicAsync(m, p, q)
		}
		h.Sync()
		if rec != nil {
			rec.Reset()
		}
		t0 = h.Now()
	} else {
		// cublasMg's own 2D distribution is inside the call.
		for _, m := range []*xkrt.Matrix{A, B, C} {
			h.Distribute2DBlockCyclicAsync(m, p, q)
		}
	}
	h.GemmAsync(core.NoTrans, core.NoTrans, 1, A, B, 1, C)
	if req.Scenario == DataOnHost {
		h.MemoryCoherentAsync(C)
	}
	end := h.Sync()
	if err := h.RT.Err(); err != nil {
		return Result{Err: err, Rec: rec}
	}
	el := end - t0
	if rec != nil {
		rec.Decisions = h.RT.Decisions()
	}
	return Result{
		Elapsed:   el,
		GFlops:    gflops(blasops.Gemm, req.N, el),
		Rec:       rec,
		Cache:     h.RT.Cache.Stats(),
		Decisions: h.RT.Decisions(),
		Metrics:   collectMetrics(req, h, rec),
	}
}
