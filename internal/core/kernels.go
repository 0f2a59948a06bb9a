package core

import (
	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/hostblas"
	"xkblas/internal/matrix"
	"xkblas/internal/xkrt"
)

// Tile-kernel task constructors. Each submits one dataflow task whose
// timing is derived from the tile dimensions via the platform kernel model.
// In functional mode the task also carries a body that calls the reference
// host kernel on the dense device tile buffers (access order = buffer
// order). Timing mode never runs a body, so the constructors build none:
// the closure would be one allocation per task for nothing.

// opK reports the contraction dimension of op(A) given its tile.
func opK(ta Trans, a *cache.Tile) int {
	if ta == NoTrans {
		return a.N
	}
	return a.M
}

// gemmTask submits Ct = alpha·op(At)·op(Bt) + beta·Ct.
func (h *Handle) gemmTask(ta, tb Trans, alpha float64, at, bt *cache.Tile, beta float64, ct *cache.Tile, prio int) {
	m, n, k := ct.M, ct.N, opK(ta, at)
	spec := xkrt.KernelSpec{
		Routine: blasops.Gemm,
		M:       m, N: n, K: k,
		Flops: 2 * float64(m) * float64(n) * float64(k),
	}
	if h.RT.Cache.Functional {
		spec.Body = func(b []matrix.View) {
			hostblas.Gemm(ta, tb, alpha, b[0], b[1], beta, b[2])
		}
	}
	h.RT.Submit("gemm", spec, prio, xkrt.R(at), xkrt.R(bt), xkrt.RW(ct))
}

// symmTask submits the diagonal-block SYMM tile update.
func (h *Handle) symmTask(side Side, uplo Uplo, alpha float64, at, bt *cache.Tile, beta float64, ct *cache.Tile, prio int) {
	m, n := ct.M, ct.N
	dim := m
	if side == Right {
		dim = n
	}
	// Standard count: side L → 2·m²·n, side R → 2·m·n².
	flops := 2 * float64(dim) * float64(m) * float64(n)
	spec := xkrt.KernelSpec{
		Routine: blasops.Symm,
		M:       m, N: n, K: dim,
		Flops: flops,
	}
	if h.RT.Cache.Functional {
		spec.Body = func(b []matrix.View) {
			hostblas.Symm(side, uplo, alpha, b[0], b[1], beta, b[2])
		}
	}
	h.RT.Submit("symm", spec, prio, xkrt.R(at), xkrt.R(bt), xkrt.RW(ct))
}

// syrkTask submits the diagonal-block SYRK tile update.
func (h *Handle) syrkTask(uplo Uplo, trans Trans, alpha float64, at *cache.Tile, beta float64, ct *cache.Tile, prio int) {
	n := ct.N
	k := opK(trans, at)
	spec := xkrt.KernelSpec{
		Routine: blasops.Syrk,
		M:       n, N: n, K: k,
		Flops: float64(k) * float64(n) * float64(n+1),
	}
	if h.RT.Cache.Functional {
		spec.Body = func(b []matrix.View) {
			hostblas.Syrk(uplo, trans, alpha, b[0], beta, b[1])
		}
	}
	h.RT.Submit("syrk", spec, prio, xkrt.R(at), xkrt.RW(ct))
}

// syr2kTask submits the diagonal-block SYR2K tile update.
func (h *Handle) syr2kTask(uplo Uplo, trans Trans, alpha float64, at, bt *cache.Tile, beta float64, ct *cache.Tile, prio int) {
	n := ct.N
	k := opK(trans, at)
	spec := xkrt.KernelSpec{
		Routine: blasops.Syr2k,
		M:       n, N: n, K: k,
		Flops: 2 * float64(k) * float64(n) * float64(n+1),
	}
	if h.RT.Cache.Functional {
		spec.Body = func(b []matrix.View) {
			hostblas.Syr2k(uplo, trans, alpha, b[0], b[1], beta, b[2])
		}
	}
	h.RT.Submit("syr2k", spec, prio, xkrt.R(at), xkrt.R(bt), xkrt.RW(ct))
}

// trmmTask submits the diagonal-block TRMM: Bt = alpha·op(At)·Bt (or right
// side variant).
func (h *Handle) trmmTask(side Side, uplo Uplo, ta Trans, diag Diag, alpha float64, at, bt *cache.Tile, prio int) {
	m, n := bt.M, bt.N
	dim := m
	if side == Right {
		dim = n
	}
	spec := xkrt.KernelSpec{
		Routine: blasops.Trmm,
		M:       m, N: n, K: dim,
		Flops: float64(n) * float64(m) * float64(dim),
	}
	if h.RT.Cache.Functional {
		spec.Body = func(b []matrix.View) {
			hostblas.Trmm(side, uplo, ta, diag, alpha, b[0], b[1])
		}
	}
	h.RT.Submit("trmm", spec, prio, xkrt.R(at), xkrt.RW(bt))
}

// trsmTask submits the diagonal-block TRSM: solve op(At)·X = alpha·Bt in
// place (or right side variant).
func (h *Handle) trsmTask(side Side, uplo Uplo, ta Trans, diag Diag, alpha float64, at, bt *cache.Tile, prio int) {
	m, n := bt.M, bt.N
	dim := m
	if side == Right {
		dim = n
	}
	spec := xkrt.KernelSpec{
		Routine: blasops.Trsm,
		M:       m, N: n, K: dim,
		Flops: float64(n) * float64(m) * float64(dim),
	}
	if h.RT.Cache.Functional {
		spec.Body = func(b []matrix.View) {
			hostblas.Trsm(side, uplo, ta, diag, alpha, b[0], b[1])
		}
	}
	h.RT.Submit("trsm", spec, prio, xkrt.R(at), xkrt.RW(bt))
}

// scalTask scales a tile in place (alpha = 0 degenerate paths).
func (h *Handle) scalTask(beta float64, ct *cache.Tile, prio int) {
	spec := xkrt.KernelSpec{
		Routine: blasops.Gemm,
		M:       ct.M, N: ct.N, K: 1,
		Flops: float64(ct.M) * float64(ct.N),
	}
	if h.RT.Cache.Functional {
		spec.Body = func(b []matrix.View) {
			hostblas.Scal(beta, b[0])
		}
	}
	h.RT.Submit("scal", spec, prio, xkrt.RW(ct))
}

// scalTriTask scales only the uplo triangle of a diagonal tile; beta = 0
// overwrites it, whatever it held.
func (h *Handle) scalTriTask(uplo Uplo, beta float64, ct *cache.Tile, prio int) {
	spec := xkrt.KernelSpec{
		Routine: blasops.Gemm,
		M:       ct.M, N: ct.N, K: 1,
		Flops: float64(ct.M) * float64(ct.N) / 2,
	}
	if h.RT.Cache.Functional {
		spec.Body = func(b []matrix.View) {
			hostblas.ScalTri(uplo, beta, b[0])
		}
	}
	h.RT.Submit("scal-tri", spec, prio, xkrt.RW(ct))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
