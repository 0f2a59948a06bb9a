package core

import (
	"fmt"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/matrix"
	"xkblas/internal/xkrt"
	"xkblas/internal/zblas"
)

// Complex/Hermitian tiled routines: with ZGEMM they complete the "9
// standard BLAS subroutines" of §IV-D. Complex matrices use the
// interleaved representation of matrix.ZMat, so every tile moves through
// the cache, the heuristics and the links as an ordinary float64 payload
// with twice the rows.

// ConjTrans re-exported for complex callers.
const ConjTrans = blasops.ConjTrans

// RegisterZ tracks a complex host matrix decomposed into NB×NB complex
// tiles ((2·NB)×NB interleaved float64 tiles).
func (h *Handle) RegisterZ(z matrix.ZMat) *xkrt.Matrix {
	return h.RT.RegisterRect(z.V, 2*h.NB, h.NB)
}

// requireSquareGridZ checks logical squareness of an interleaved complex
// matrix (V.M = 2·logical rows).
func requireSquareGridZ(name string, m *xkrt.Matrix) {
	if m.View.M != 2*m.View.N {
		panic(fmt.Sprintf("core: %s requires a square complex matrix, got %dx%d (logical)",
			name, m.View.M/2, m.View.N))
	}
}

// zTileDims reports the logical complex dims of an interleaved tile.
func zTileDims(t *cache.Tile) (m, n int) { return t.M / 2, t.N }

// zbuf wraps a device buffer view as a complex matrix.
func zbuf(v matrix.View) matrix.ZMat { return matrix.ZFromView(v) }

// zgemmTask submits Ct = alpha·op(At)·op(Bt) + beta·Ct on complex tiles.
func (h *Handle) zgemmTask(ta, tb Trans, alpha complex128, at, bt *cache.Tile, beta complex128, ct *cache.Tile, prio int) {
	m, n := zTileDims(ct)
	var k int
	if ta == NoTrans {
		_, k = zTileDims(at)
	} else {
		k, _ = zTileDims(at)
	}
	spec := xkrt.KernelSpec{
		Routine: blasops.Zgemm,
		M:       m, N: n, K: k,
		Flops: 8 * float64(m) * float64(n) * float64(k),
	}
	if h.RT.Cache.Functional {
		spec.Body = func(b []matrix.View) {
			zblas.Gemm(ta, tb, alpha, zbuf(b[0]), zbuf(b[1]), beta, zbuf(b[2]))
		}
	}
	h.RT.Submit("zgemm", spec, prio, xkrt.R(at), xkrt.R(bt), xkrt.RW(ct))
}

func (h *Handle) hemmTask(side Side, uplo Uplo, alpha complex128, at, bt *cache.Tile, beta complex128, ct *cache.Tile, prio int) {
	m, n := zTileDims(ct)
	dim := m
	if side == Right {
		dim = n
	}
	spec := xkrt.KernelSpec{
		Routine: blasops.Hemm,
		M:       m, N: n, K: dim,
		Flops: 8 * float64(dim) * float64(m) * float64(n),
	}
	if h.RT.Cache.Functional {
		spec.Body = func(b []matrix.View) {
			zblas.Hemm(side, uplo, alpha, zbuf(b[0]), zbuf(b[1]), beta, zbuf(b[2]))
		}
	}
	h.RT.Submit("hemm", spec, prio, xkrt.R(at), xkrt.R(bt), xkrt.RW(ct))
}

func (h *Handle) herkTask(uplo Uplo, trans Trans, alpha float64, at *cache.Tile, beta float64, ct *cache.Tile, prio int) {
	n, _ := zTileDims(ct)
	var k int
	if trans == NoTrans {
		_, k = zTileDims(at)
	} else {
		k, _ = zTileDims(at)
	}
	spec := xkrt.KernelSpec{
		Routine: blasops.Herk,
		M:       n, N: n, K: k,
		Flops: 4 * float64(k) * float64(n) * float64(n+1),
	}
	if h.RT.Cache.Functional {
		spec.Body = func(b []matrix.View) {
			zblas.Herk(uplo, trans, alpha, zbuf(b[0]), beta, zbuf(b[1]))
		}
	}
	h.RT.Submit("herk", spec, prio, xkrt.R(at), xkrt.RW(ct))
}

func (h *Handle) her2kTask(uplo Uplo, trans Trans, alpha complex128, at, bt *cache.Tile, beta float64, ct *cache.Tile, prio int) {
	n, _ := zTileDims(ct)
	var k int
	if trans == NoTrans {
		_, k = zTileDims(at)
	} else {
		k, _ = zTileDims(at)
	}
	spec := xkrt.KernelSpec{
		Routine: blasops.Her2k,
		M:       n, N: n, K: k,
		Flops: 8 * float64(k) * float64(n) * float64(n+1),
	}
	if h.RT.Cache.Functional {
		spec.Body = func(b []matrix.View) {
			zblas.Her2k(uplo, trans, alpha, zbuf(b[0]), zbuf(b[1]), beta, zbuf(b[2]))
		}
	}
	h.RT.Submit("her2k", spec, prio, xkrt.R(at), xkrt.R(bt), xkrt.RW(ct))
}

// ZgemmAsync submits C = alpha·op(A)·op(B) + beta·C on complex matrices,
// op ∈ {N, T, C}.
func (h *Handle) ZgemmAsync(ta, tb Trans, alpha complex128, a, b *xkrt.Matrix, beta complex128, c *xkrt.Matrix) {
	am, ak := opGrid(ta, a)
	bk, bn := opGrid(tb, b)
	if am != c.Rows() || bn != c.Cols() || ak != bk {
		panic(fmt.Sprintf("core: zgemm tile grids incompatible: op(A) %dx%d, op(B) %dx%d, C %dx%d",
			am, ak, bk, bn, c.Rows(), c.Cols()))
	}
	for i := 0; i < c.Rows(); i++ {
		for j := 0; j < c.Cols(); j++ {
			ct := c.Tile(i, j)
			for k := 0; k < ak; k++ {
				bta := beta
				if k > 0 {
					bta = 1
				}
				h.zgemmTask(ta, tb, alpha, opTile(ta, a, i, k), opTile(tb, b, k, j), bta, ct, 0)
			}
		}
	}
}

// ZhemmAsync submits C = alpha·A·B + beta·C with A Hermitian (side Left)
// or C = alpha·B·A + beta·C (side Right).
func (h *Handle) ZhemmAsync(side Side, uplo Uplo, alpha complex128, a, b *xkrt.Matrix, beta complex128, c *xkrt.Matrix) {
	requireSquareGridZ("zhemm", a)
	mt, nt := c.Rows(), c.Cols()
	for i := 0; i < mt; i++ {
		for j := 0; j < nt; j++ {
			ct := c.Tile(i, j)
			if side == Left {
				for k := 0; k < mt; k++ {
					bta := beta
					if k > 0 {
						bta = 1
					}
					switch {
					case k == i:
						h.hemmTask(Left, uplo, alpha, a.Tile(i, i), b.Tile(k, j), bta, ct, 0)
					case stored(uplo, i, k):
						h.zgemmTask(NoTrans, NoTrans, alpha, a.Tile(i, k), b.Tile(k, j), bta, ct, 0)
					default:
						h.zgemmTask(ConjTrans, NoTrans, alpha, a.Tile(k, i), b.Tile(k, j), bta, ct, 0)
					}
				}
				continue
			}
			for k := 0; k < nt; k++ {
				bta := beta
				if k > 0 {
					bta = 1
				}
				switch {
				case k == j:
					h.hemmTask(Right, uplo, alpha, a.Tile(j, j), b.Tile(i, k), bta, ct, 0)
				case stored(uplo, k, j):
					h.zgemmTask(NoTrans, NoTrans, alpha, b.Tile(i, k), a.Tile(k, j), bta, ct, 0)
				default:
					h.zgemmTask(NoTrans, ConjTrans, alpha, b.Tile(i, k), a.Tile(j, k), bta, ct, 0)
				}
			}
		}
	}
}

// ZherkAsync submits C = alpha·op(A)·op(A)ᴴ + beta·C on the uplo triangle
// of the Hermitian C (alpha, beta real; trans ∈ {N, C}).
func (h *Handle) ZherkAsync(uplo Uplo, trans Trans, alpha float64, a *xkrt.Matrix, beta float64, c *xkrt.Matrix) {
	requireSquareGridZ("zherk", c)
	nt := c.Rows()
	arows, kt := opGrid(trans, a)
	if arows != nt {
		panic(fmt.Sprintf("core: zherk op(A) rows %d vs C %d", arows, nt))
	}
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			if !onTriangle(uplo, i, j) {
				continue
			}
			ct := c.Tile(i, j)
			for k := 0; k < kt; k++ {
				bta := beta
				if k > 0 {
					bta = 1
				}
				if i == j {
					h.herkTask(uplo, trans, alpha, opTile(trans, a, i, k), bta, ct, 0)
					continue
				}
				ca := complex(alpha, 0)
				if trans == NoTrans {
					h.zgemmTask(NoTrans, ConjTrans, ca, a.Tile(i, k), a.Tile(j, k), complex(bta, 0), ct, 0)
				} else {
					h.zgemmTask(ConjTrans, NoTrans, ca, a.Tile(k, i), a.Tile(k, j), complex(bta, 0), ct, 0)
				}
			}
		}
	}
}

// Zher2kAsync submits C = alpha·op(A)·op(B)ᴴ + conj(alpha)·op(B)·op(A)ᴴ +
// beta·C on the uplo triangle of the Hermitian C (beta real).
func (h *Handle) Zher2kAsync(uplo Uplo, trans Trans, alpha complex128, a, b *xkrt.Matrix, beta float64, c *xkrt.Matrix) {
	requireSquareGridZ("zher2k", c)
	nt := c.Rows()
	arows, kt := opGrid(trans, a)
	if arows != nt {
		panic(fmt.Sprintf("core: zher2k op(A) rows %d vs C %d", arows, nt))
	}
	conjAlpha := complex(real(alpha), -imag(alpha))
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			if !onTriangle(uplo, i, j) {
				continue
			}
			ct := c.Tile(i, j)
			for k := 0; k < kt; k++ {
				bta := beta
				if k > 0 {
					bta = 1
				}
				if i == j {
					h.her2kTask(uplo, trans, alpha, opTile(trans, a, i, k), opTile(trans, b, i, k), bta, ct, 0)
					continue
				}
				if trans == NoTrans {
					h.zgemmTask(NoTrans, ConjTrans, alpha, a.Tile(i, k), b.Tile(j, k), complex(bta, 0), ct, 0)
					h.zgemmTask(NoTrans, ConjTrans, conjAlpha, b.Tile(i, k), a.Tile(j, k), 1, ct, 0)
				} else {
					h.zgemmTask(ConjTrans, NoTrans, alpha, a.Tile(k, i), b.Tile(k, j), complex(bta, 0), ct, 0)
					h.zgemmTask(ConjTrans, NoTrans, conjAlpha, b.Tile(k, i), a.Tile(k, j), 1, ct, 0)
				}
			}
		}
	}
}
