package baseline

import (
	"fmt"

	"xkblas/internal/blasops"
	"xkblas/internal/matrix"
	"xkblas/internal/policy"
	"xkblas/internal/xkrt"
)

// slateLib models SLATE (§II-B, §IV-D): every algorithm is organised as
// block outer products lowered onto batched GEMM, with a synchronisation
// between consecutive k panels, and — the property that caps its DGX-1
// performance — no device-to-device transfers: operands are broadcast from
// host memory over the PCIe buses for every panel.
type slateLib struct {
	std StdLib // fallback policy for the non-GEMM routines
}

// Slate returns the SLATE model.
func Slate() Library {
	return &slateLib{
		std: StdLib{
			LibName:  "Slate",
			Routines: allSix,
			Opts:     slateOpts(),
			// SLATE's calls are synchronous at the library boundary.
			InterCallBarrier: true,
		},
	}
}

func slateOpts() xkrt.Options {
	return xkrt.Options{
		Window: 2,
		Policy: &policy.Bundle{
			Source:    policy.HostOnly{},                  // all traffic over PCIe
			Scheduler: policy.WorkStealing{NoSteal: true}, // fixed 2D distribution
			Evictor:   policy.LRUReadOnlyFirst{},
		},
	}
}

func (l *slateLib) Name() string { return "Slate" }

func (l *slateLib) Supports(r blasops.Routine) bool { return l.std.Supports(r) }

// Run executes GEMM with the faithful panel-synchronous block outer
// product driver; the remaining routines use the same host-only transfer
// policy through the shared tile algorithms.
func (l *slateLib) Run(req Request) (res Result) {
	if req.Routine != blasops.Gemm {
		return l.std.Run(req)
	}
	if err := req.canceled(); err != nil {
		return Result{Err: &xkrt.CanceledError{Cause: err}}
	}
	c := acquire(req, slateOpts(), 0)
	h := c.h
	rec := attachTrace(h, req)
	defer func() { c.release(req, res.Err) }()
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: fmt.Errorf("slate: %v", r), Rec: rec}
		}
	}()
	defer armCancel(req, h)()
	n := req.N
	A := h.Register(matrix.NewShape(n, n))
	B := h.Register(matrix.NewShape(n, n))
	C := h.Register(matrix.NewShape(n, n))
	if req.Scenario == DataOnDevice {
		p, q := 4, 2
		if g := len(h.Plat.GPUs); g != 8 {
			p, q = g, 1
		}
		for _, m := range []*xkrt.Matrix{A, B, C} {
			h.Distribute2DBlockCyclicAsync(m, p, q)
		}
		h.Sync()
		if rec != nil {
			rec.Reset()
		}
	}
	t0 := h.Now()
	nt := C.Rows()
	kt := A.Cols()
	// Block outer product: one batched-GEMM step per k panel, with a
	// lookahead-free synchronisation between panels (slate::internal::gemm
	// batch boundaries). Panel operands are re-broadcast from the host for
	// every step — SLATE's batched layer does not retain them — so the 4
	// PCIe switches carry the panels k times (§IV-D).
	for k := 0; k < kt; k++ {
		for i := 0; i < nt; i++ {
			for j := 0; j < nt; j++ {
				at, bt, ct := A.Tile(i, k), B.Tile(k, j), C.Tile(i, j)
				m1, n1, k1 := ct.M, ct.N, at.N
				spec := xkrt.KernelSpec{
					Routine: blasops.Gemm,
					M:       m1, N: n1, K: k1,
					Flops: 2 * float64(m1) * float64(n1) * float64(k1),
				}
				h.RT.Submit("slate-gemm", spec, 0, xkrt.R(at), xkrt.R(bt), xkrt.RW(ct))
			}
		}
		h.Sync() // panel barrier
		if h.RT.Err() != nil {
			// Cancelled (or failed) mid-panel: stop building further panels;
			// the final Sync below reports the error.
			break
		}
		if req.Scenario == DataOnHost {
			for _, g := range h.Plat.Topo.GPUs() {
				for i := 0; i < nt; i++ {
					h.RT.Cache.DropClean(A.Tile(i, k), g)
				}
				for j := 0; j < nt; j++ {
					h.RT.Cache.DropClean(B.Tile(k, j), g)
				}
			}
		}
	}
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

// RunComposition implements Composer with SLATE's synchronous semantics.
func (l *slateLib) RunComposition(req Request) Result { return l.std.RunComposition(req) }
