package core

import (
	"fmt"

	"xkblas/internal/cache"
	"xkblas/internal/xkrt"
)

// opTile resolves tile (i,k) of op(A).
func opTile(ta Trans, a *xkrt.Matrix, i, k int) *cache.Tile {
	if ta == NoTrans {
		return a.Tile(i, k)
	}
	return a.Tile(k, i)
}

// opGrid reports the tile-grid shape of op(A).
func opGrid(ta Trans, a *xkrt.Matrix) (rows, cols int) {
	if ta == NoTrans {
		return a.Rows(), a.Cols()
	}
	return a.Cols(), a.Rows()
}

// GemmAsync submits C = alpha·op(A)·op(B) + beta·C as tile tasks — the
// PLASMA pdgemm loop nest over sub-matrix views. All four transpose
// combinations are supported. The call returns immediately; dependencies,
// transfers and device mapping are resolved by the runtime.
func (h *Handle) GemmAsync(ta, tb Trans, alpha float64, a, b *xkrt.Matrix, beta float64, c *xkrt.Matrix) {
	gemmLoop(h, ta, tb, alpha, a, b, beta, c, false)
}

// ZgemmAsync is GemmAsync on complex matrices, op ∈ {N, T, C}.
func (h *Handle) ZgemmAsync(ta, tb Trans, alpha complex128, a, b *xkrt.Matrix, beta complex128, c *xkrt.Matrix) {
	gemmLoop(h, ta, tb, alpha, a, b, beta, c, false)
}

// GemmFlushAsync is GemmAsync with each C tile's host write-back scheduled
// right after the last product of its k-chain, instead of a single
// MemoryCoherentAsync pass at the end. Interleaving coherency with
// computation bounds the dirty device footprint to the tiles still
// accumulating: the end-of-call flush leaves every C tile dirty on its
// owner at once, which exceeds aggregate device memory as soon as C
// outgrows it — the wall that previously capped single-call problem sizes.
// Combined with a stream window it lets a generator pipe an arbitrarily
// large product through fixed task and device memory.
func (h *Handle) GemmFlushAsync(ta, tb Trans, alpha float64, a, b *xkrt.Matrix, beta float64, c *xkrt.Matrix) {
	gemmLoop(h, ta, tb, alpha, a, b, beta, c, true)
}

// gemmLoop is the shared PLASMA pdgemm loop nest; flush interleaves each C
// tile's coherency task after its k-chain.
func gemmLoop[T elem](h *Handle, ta, tb Trans, alpha T, a, b *xkrt.Matrix, beta T, c *xkrt.Matrix, flush bool) {
	am, ak := opGrid(ta, a)
	bk, bn := opGrid(tb, b)
	if am != c.Rows() || bn != c.Cols() || ak != bk {
		panic(fmt.Sprintf("core: gemm tile grids incompatible: op(A) %dx%d, op(B) %dx%d, C %dx%d",
			am, ak, bk, bn, c.Rows(), c.Cols()))
	}
	if alpha == 0 {
		c.EachTile(func(_, _ int, t *cache.Tile) {
			scalTask(h, beta, t, 0)
			if flush {
				h.RT.SubmitFlush(t)
			}
		})
		return
	}
	for i := 0; i < c.Rows(); i++ {
		for j := 0; j < c.Cols(); j++ {
			ct := c.Tile(i, j)
			for k := 0; k < ak; k++ {
				bta := beta
				if k > 0 {
					bta = 1
				}
				gemmTask(h, ta, tb, alpha, opTile(ta, a, i, k), opTile(tb, b, k, j), bta, ct, 0)
			}
			if flush {
				h.RT.SubmitFlush(ct)
			}
			if h.stopped() {
				return
			}
		}
	}
}
