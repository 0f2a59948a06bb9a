package core

import (
	"math/cmplx"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/hostblas"
	"xkblas/internal/matrix"
	"xkblas/internal/xkrt"
	"xkblas/internal/zblas"
)

// Tile-kernel task constructors. Each submits one dataflow task whose
// timing is derived from the tile dimensions via the platform kernel model.
// In functional mode the task also carries a body that calls the reference
// host kernel on the dense device tile buffers (access order = buffer
// order). Timing mode never runs a body, so the constructors build none:
// the closure would be one allocation per task for nothing.
//
// Every constructor, and every tile loop above them, serves both element
// types. Complex matrices use the interleaved representation of
// matrix.ZMat, so a complex tile moves through the cache, the heuristics
// and the links as an ordinary float64 payload with twice the rows. What
// depends on the element type lives here: the kernel and its routine id,
// the logical tile height, the flop count (a complex multiply-add is four
// real ones), the op that reflects a symmetric or Hermitian operand, and
// conj(alpha).

// elem is a tile loop's element type.
type elem interface{ float64 | complex128 }

func isComplex[T elem]() bool {
	var z T
	_, ok := any(z).(complex128)
	return ok
}

// byElem returns r for real element types and z for complex ones.
func byElem[T elem, V any](r, z V) V {
	if isComplex[T]() {
		return z
	}
	return r
}

// logicalRows converts a float64 row count to logical rows.
func logicalRows[T elem](m int) int { return byElem[T](m, m/2) }

// reflectOp is the op that reads the reflection of a symmetric (Hermitian)
// operand's stored triangle.
func reflectOp[T elem]() Trans { return byElem[T](Transpose, ConjTrans) }

func conj[T elem](x T) T {
	if z, ok := any(x).(complex128); ok {
		return any(cmplx.Conj(z)).(T)
	}
	return x
}

// opK reports the contraction dimension of op(A) given its tile.
func opK[T elem](ta Trans, a *cache.Tile) int {
	if ta == NoTrans {
		return a.N
	}
	return logicalRows[T](a.M)
}

// spec builds a tile task's timing spec on logical dimensions from the
// real routine r, its complex counterpart z and the real flop count.
func spec[T elem](r, z blasops.Routine, m, n, k int, flops float64) xkrt.KernelSpec {
	if isComplex[T]() {
		r, flops = z, 4*flops
	}
	return xkrt.KernelSpec{Routine: r, M: m, N: n, K: k, Flops: flops}
}

// zbuf wraps a device buffer view as a complex matrix.
func zbuf(v matrix.View) matrix.ZMat { return matrix.ZFromView(v) }

// gemmTask submits Ct = alpha·op(At)·op(Bt) + beta·Ct.
func gemmTask[T elem](h *Handle, ta, tb Trans, alpha T, at, bt *cache.Tile, beta T, ct *cache.Tile, prio int) {
	m, n, k := logicalRows[T](ct.M), ct.N, opK[T](ta, at)
	s := spec[T](blasops.Gemm, blasops.Zgemm, m, n, k, 2*float64(m)*float64(n)*float64(k))
	if h.RT.Cache.Functional {
		switch alpha := any(alpha).(type) {
		case float64:
			beta := any(beta).(float64)
			s.Body = func(b []matrix.View) { hostblas.Gemm(ta, tb, alpha, b[0], b[1], beta, b[2]) }
		case complex128:
			beta := any(beta).(complex128)
			s.Body = func(b []matrix.View) { zblas.Gemm(ta, tb, alpha, zbuf(b[0]), zbuf(b[1]), beta, zbuf(b[2])) }
		}
	}
	h.RT.Submit(byElem[T]("gemm", "zgemm"), s, prio, xkrt.R(at), xkrt.R(bt), xkrt.RW(ct))
}

// symmTask submits the diagonal-block SYMM (HEMM) tile update.
func symmTask[T elem](h *Handle, side Side, uplo Uplo, alpha T, at, bt *cache.Tile, beta T, ct *cache.Tile, prio int) {
	m, n := logicalRows[T](ct.M), ct.N
	dim := m
	if side == Right {
		dim = n
	}
	// Standard count: side L → 2·m²·n, side R → 2·m·n².
	s := spec[T](blasops.Symm, blasops.Hemm, m, n, dim, 2*float64(dim)*float64(m)*float64(n))
	if h.RT.Cache.Functional {
		switch alpha := any(alpha).(type) {
		case float64:
			beta := any(beta).(float64)
			s.Body = func(b []matrix.View) { hostblas.Symm(side, uplo, alpha, b[0], b[1], beta, b[2]) }
		case complex128:
			beta := any(beta).(complex128)
			s.Body = func(b []matrix.View) { zblas.Hemm(side, uplo, alpha, zbuf(b[0]), zbuf(b[1]), beta, zbuf(b[2])) }
		}
	}
	h.RT.Submit(byElem[T]("symm", "hemm"), s, prio, xkrt.R(at), xkrt.R(bt), xkrt.RW(ct))
}

// syrkTask submits the diagonal-block SYRK (HERK) tile update. HERK's
// scalars are real: only their real parts are read.
func syrkTask[T elem](h *Handle, uplo Uplo, trans Trans, alpha T, at *cache.Tile, beta T, ct *cache.Tile, prio int) {
	n, k := ct.N, opK[T](trans, at)
	s := spec[T](blasops.Syrk, blasops.Herk, n, n, k, float64(k)*float64(n)*float64(n+1))
	if h.RT.Cache.Functional {
		switch alpha := any(alpha).(type) {
		case float64:
			beta := any(beta).(float64)
			s.Body = func(b []matrix.View) { hostblas.Syrk(uplo, trans, alpha, b[0], beta, b[1]) }
		case complex128:
			beta := any(beta).(complex128)
			s.Body = func(b []matrix.View) { zblas.Herk(uplo, trans, real(alpha), zbuf(b[0]), real(beta), zbuf(b[1])) }
		}
	}
	h.RT.Submit(byElem[T]("syrk", "herk"), s, prio, xkrt.R(at), xkrt.RW(ct))
}

// syr2kTask submits the diagonal-block SYR2K (HER2K) tile update. HER2K's
// beta is real: only its real part is read.
func syr2kTask[T elem](h *Handle, uplo Uplo, trans Trans, alpha T, at, bt *cache.Tile, beta T, ct *cache.Tile, prio int) {
	n, k := ct.N, opK[T](trans, at)
	s := spec[T](blasops.Syr2k, blasops.Her2k, n, n, k, 2*float64(k)*float64(n)*float64(n+1))
	if h.RT.Cache.Functional {
		switch alpha := any(alpha).(type) {
		case float64:
			beta := any(beta).(float64)
			s.Body = func(b []matrix.View) { hostblas.Syr2k(uplo, trans, alpha, b[0], b[1], beta, b[2]) }
		case complex128:
			beta := any(beta).(complex128)
			s.Body = func(b []matrix.View) { zblas.Her2k(uplo, trans, alpha, zbuf(b[0]), zbuf(b[1]), real(beta), zbuf(b[2])) }
		}
	}
	h.RT.Submit(byElem[T]("syr2k", "her2k"), s, prio, xkrt.R(at), xkrt.R(bt), xkrt.RW(ct))
}

// trmmTask submits the diagonal-block TRMM: Bt = alpha·op(At)·Bt (or right
// side variant).
func trmmTask[T elem](h *Handle, side Side, uplo Uplo, ta Trans, diag Diag, alpha T, at, bt *cache.Tile, prio int) {
	m, n := logicalRows[T](bt.M), bt.N
	dim := m
	if side == Right {
		dim = n
	}
	s := spec[T](blasops.Trmm, blasops.Trmm, m, n, dim, float64(n)*float64(m)*float64(dim))
	if h.RT.Cache.Functional {
		switch alpha := any(alpha).(type) {
		case float64:
			s.Body = func(b []matrix.View) { hostblas.Trmm(side, uplo, ta, diag, alpha, b[0], b[1]) }
		case complex128:
			s.Body = func(b []matrix.View) { zblas.Trmm(side, uplo, ta, diag, alpha, zbuf(b[0]), zbuf(b[1])) }
		}
	}
	h.RT.Submit(byElem[T]("trmm", "ztrmm"), s, prio, xkrt.R(at), xkrt.RW(bt))
}

// trsmTask submits the diagonal-block TRSM: solve op(At)·X = alpha·Bt in
// place (or right side variant).
func trsmTask[T elem](h *Handle, side Side, uplo Uplo, ta Trans, diag Diag, alpha T, at, bt *cache.Tile, prio int) {
	m, n := logicalRows[T](bt.M), bt.N
	dim := m
	if side == Right {
		dim = n
	}
	s := spec[T](blasops.Trsm, blasops.Trsm, m, n, dim, float64(n)*float64(m)*float64(dim))
	if h.RT.Cache.Functional {
		switch alpha := any(alpha).(type) {
		case float64:
			s.Body = func(b []matrix.View) { hostblas.Trsm(side, uplo, ta, diag, alpha, b[0], b[1]) }
		case complex128:
			s.Body = func(b []matrix.View) { zblas.Trsm(side, uplo, ta, diag, alpha, zbuf(b[0]), zbuf(b[1])) }
		}
	}
	h.RT.Submit(byElem[T]("trsm", "ztrsm"), s, prio, xkrt.R(at), xkrt.RW(bt))
}

// scalTask scales a tile in place (alpha = 0 degenerate paths).
func scalTask[T elem](h *Handle, beta T, ct *cache.Tile, prio int) {
	m, n := logicalRows[T](ct.M), ct.N
	s := spec[T](blasops.Gemm, blasops.Zgemm, m, n, 1, float64(m)*float64(n))
	if h.RT.Cache.Functional {
		switch beta := any(beta).(type) {
		case float64:
			s.Body = func(b []matrix.View) { hostblas.Scal(beta, b[0]) }
		case complex128:
			s.Body = func(b []matrix.View) { zblas.Scal(beta, zbuf(b[0])) }
		}
	}
	h.RT.Submit(byElem[T]("scal", "zscal"), s, prio, xkrt.RW(ct))
}

// scalTriTask scales only the uplo triangle of a diagonal tile; beta = 0
// overwrites it, whatever it held. A complex tile is Hermitian: beta is
// real and the diagonal's imaginary parts are zeroed.
func scalTriTask[T elem](h *Handle, uplo Uplo, beta T, ct *cache.Tile, prio int) {
	m, n := logicalRows[T](ct.M), ct.N
	s := spec[T](blasops.Gemm, blasops.Zgemm, m, n, 1, float64(m)*float64(n)/2)
	if h.RT.Cache.Functional {
		switch beta := any(beta).(type) {
		case float64:
			s.Body = func(b []matrix.View) { hostblas.ScalTri(uplo, beta, b[0]) }
		case complex128:
			s.Body = func(b []matrix.View) { zblas.ScalTri(uplo, real(beta), zbuf(b[0])) }
		}
	}
	h.RT.Submit(byElem[T]("scal-tri", "zscal-tri"), s, prio, xkrt.RW(ct))
}
