package core

import (
	"fmt"

	"xkblas/internal/cache"
	"xkblas/internal/xkrt"
)

// SymmAsync submits C = alpha·A·B + beta·C (side Left, A symmetric stored
// in the uplo triangle) or C = alpha·B·A + beta·C (side Right). Diagonal
// tile products use the SYMM tile kernel; off-diagonal products read the
// stored triangle directly or transposed (the PLASMA pdsymm scheme).
func (h *Handle) SymmAsync(side Side, uplo Uplo, alpha float64, a, b *xkrt.Matrix, beta float64, c *xkrt.Matrix) {
	symmLoop(h, side, uplo, alpha, a, b, beta, c)
}

// ZhemmAsync is SymmAsync with A Hermitian: the reflected triangle is read
// conjugate-transposed.
func (h *Handle) ZhemmAsync(side Side, uplo Uplo, alpha complex128, a, b *xkrt.Matrix, beta complex128, c *xkrt.Matrix) {
	symmLoop(h, side, uplo, alpha, a, b, beta, c)
}

func symmLoop[T elem](h *Handle, side Side, uplo Uplo, alpha T, a, b *xkrt.Matrix, beta T, c *xkrt.Matrix) {
	requireSquareGrid[T]("symm", a)
	mt, nt := c.Rows(), c.Cols()
	if b.Rows() != mt || b.Cols() != nt {
		panic(fmt.Sprintf("core: symm B grid %dx%d vs C %dx%d", b.Rows(), b.Cols(), mt, nt))
	}
	if side == Left && a.Rows() != mt {
		panic("core: symm left A grid mismatch")
	}
	if side == Right && a.Rows() != nt {
		panic("core: symm right A grid mismatch")
	}
	if alpha == 0 {
		c.EachTile(func(_, _ int, t *cache.Tile) { scalTask(h, beta, t, 0) })
		return
	}
	refl := reflectOp[T]()
	for i := 0; i < mt; i++ {
		for j := 0; j < nt; j++ {
			ct := c.Tile(i, j)
			if side == Left {
				// C[i,j] += Σ_k sym(A)[i,k]·B[k,j].
				for k := 0; k < mt; k++ {
					bta := beta
					if k > 0 {
						bta = 1
					}
					switch {
					case k == i:
						symmTask(h, Left, uplo, alpha, a.Tile(i, i), b.Tile(k, j), bta, ct, 0)
					case stored(uplo, i, k):
						gemmTask(h, NoTrans, NoTrans, alpha, a.Tile(i, k), b.Tile(k, j), bta, ct, 0)
					default:
						gemmTask(h, refl, NoTrans, alpha, a.Tile(k, i), b.Tile(k, j), bta, ct, 0)
					}
				}
			} else {
				// Side Right: C[i,j] += Σ_k B[i,k]·sym(A)[k,j].
				for k := 0; k < nt; k++ {
					bta := beta
					if k > 0 {
						bta = 1
					}
					switch {
					case k == j:
						symmTask(h, Right, uplo, alpha, a.Tile(j, j), b.Tile(i, k), bta, ct, 0)
					case stored(uplo, k, j):
						gemmTask(h, NoTrans, NoTrans, alpha, b.Tile(i, k), a.Tile(k, j), bta, ct, 0)
					default:
						gemmTask(h, NoTrans, refl, alpha, b.Tile(i, k), a.Tile(j, k), bta, ct, 0)
					}
				}
			}
			if h.stopped() {
				return
			}
		}
	}
}
