package core

import (
	"fmt"

	"xkblas/internal/cache"
	"xkblas/internal/xkrt"
)

// SyrkAsync submits C = alpha·op(A)·op(A)ᵀ + beta·C on the uplo triangle of
// C (PLASMA pdsyrk): the diagonal tiles use the SYRK tile kernel; the
// off-diagonal tiles of the stored triangle are plain GEMMs between
// distinct row (or column) panels of A.
func (h *Handle) SyrkAsync(uplo Uplo, trans Trans, alpha float64, a *xkrt.Matrix, beta float64, c *xkrt.Matrix) {
	syrkLoop(h, uplo, trans, alpha, a, beta, c)
}

// ZherkAsync submits C = alpha·op(A)·op(A)ᴴ + beta·C on the uplo triangle
// of the Hermitian C (alpha, beta real; trans ∈ {N, C}).
func (h *Handle) ZherkAsync(uplo Uplo, trans Trans, alpha float64, a *xkrt.Matrix, beta float64, c *xkrt.Matrix) {
	syrkLoop(h, uplo, trans, complex(alpha, 0), a, complex(beta, 0), c)
}

func syrkLoop[T elem](h *Handle, uplo Uplo, trans Trans, alpha T, a *xkrt.Matrix, beta T, c *xkrt.Matrix) {
	requireSquareGrid[T]("syrk", c)
	nt := c.Rows()
	arows, kt := opGrid(trans, a)
	if arows != nt {
		panic(fmt.Sprintf("core: syrk op(A) rows %d vs C %d", arows, nt))
	}
	if alpha == 0 {
		scaleTriangle(h, uplo, beta, c)
		return
	}
	refl := reflectOp[T]()
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
					syrkTask(h, uplo, trans, alpha, opTile(trans, a, i, k), bta, ct, 0)
					continue
				}
				// C[i,j] += alpha·op(A)[i,k]·op(A)[j,k]ᵀ.
				if trans == NoTrans {
					gemmTask(h, NoTrans, refl, alpha, a.Tile(i, k), a.Tile(j, k), bta, ct, 0)
				} else {
					gemmTask(h, refl, NoTrans, alpha, a.Tile(k, i), a.Tile(k, j), bta, ct, 0)
				}
			}
			if h.stopped() {
				return
			}
		}
	}
}

// Syr2kAsync submits C = alpha·(op(A)·op(B)ᵀ + op(B)·op(A)ᵀ) + beta·C on
// the uplo triangle of C (PLASMA pdsyr2k). Off-diagonal stored tiles
// receive two GEMM updates per k step.
func (h *Handle) Syr2kAsync(uplo Uplo, trans Trans, alpha float64, a, b *xkrt.Matrix, beta float64, c *xkrt.Matrix) {
	syr2kLoop(h, uplo, trans, alpha, a, b, beta, c)
}

// Zher2kAsync submits C = alpha·op(A)·op(B)ᴴ + conj(alpha)·op(B)·op(A)ᴴ +
// beta·C on the uplo triangle of the Hermitian C (beta real; trans ∈
// {N, C}).
func (h *Handle) Zher2kAsync(uplo Uplo, trans Trans, alpha complex128, a, b *xkrt.Matrix, beta float64, c *xkrt.Matrix) {
	syr2kLoop(h, uplo, trans, alpha, a, b, complex(beta, 0), c)
}

func syr2kLoop[T elem](h *Handle, uplo Uplo, trans Trans, alpha T, a, b *xkrt.Matrix, beta T, c *xkrt.Matrix) {
	requireSquareGrid[T]("syr2k", c)
	nt := c.Rows()
	arows, kt := opGrid(trans, a)
	brows, bkt := opGrid(trans, b)
	if arows != nt || brows != nt || kt != bkt {
		panic(fmt.Sprintf("core: syr2k grids: op(A) %dx%d, op(B) %dx%d, C %d", arows, kt, brows, bkt, nt))
	}
	if alpha == 0 {
		scaleTriangle(h, uplo, beta, c)
		return
	}
	refl, alpha2 := reflectOp[T](), conj(alpha)
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
					syr2kTask(h, uplo, trans, alpha, opTile(trans, a, i, k), opTile(trans, b, i, k), bta, ct, 0)
					continue
				}
				// C[i,j] += alpha·op(A)[i,k]·op(B)[j,k]ᵀ
				//         + conj(alpha)·op(B)[i,k]·op(A)[j,k]ᵀ.
				if trans == NoTrans {
					gemmTask(h, NoTrans, refl, alpha, a.Tile(i, k), b.Tile(j, k), bta, ct, 0)
					gemmTask(h, NoTrans, refl, alpha2, b.Tile(i, k), a.Tile(j, k), 1, ct, 0)
				} else {
					gemmTask(h, refl, NoTrans, alpha, a.Tile(k, i), b.Tile(k, j), bta, ct, 0)
					gemmTask(h, refl, NoTrans, alpha2, b.Tile(k, i), a.Tile(k, j), 1, ct, 0)
				}
			}
			if h.stopped() {
				return
			}
		}
	}
}

// onTriangle reports whether tile (i,j) lies in the stored triangle.
func onTriangle(uplo Uplo, i, j int) bool {
	if uplo == Lower {
		return i >= j
	}
	return i <= j
}

// scaleTriangle submits beta-scaling of the stored triangle of C: whole
// tiles off the diagonal, triangle-only on diagonal tiles.
func scaleTriangle[T elem](h *Handle, uplo Uplo, beta T, c *xkrt.Matrix) {
	c.EachTile(func(i, j int, t *cache.Tile) {
		switch {
		case i == j:
			scalTriTask(h, uplo, beta, t, 0)
		case onTriangle(uplo, i, j):
			scalTask(h, beta, t, 0)
		}
	})
}
