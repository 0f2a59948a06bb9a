package core

import (
	"fmt"

	"xkblas/internal/cache"
	"xkblas/internal/xkrt"
)

// TrsmAsync submits the in-place solve op(A)·X = alpha·B (side Left) or
// X·op(A) = alpha·B (side Right), overwriting B with X — the PLASMA pdtrsm
// scheme. Panels are solved front-to-back along the effective triangle;
// each diagonal TRSM is followed by GEMM updates pushing the solved panel
// into the remaining right-hand sides with beta = alpha on their first
// touch (the lalpha trick), so alpha is applied exactly once per tile.
//
// Diagonal solves carry a high scheduler priority: they sit on the
// algorithm's critical path.
func (h *Handle) TrsmAsync(side Side, uplo Uplo, ta Trans, diag Diag, alpha float64, a, b *xkrt.Matrix) {
	trsmLoop(h, side, uplo, ta, diag, alpha, a, b)
}

// ZtrsmAsync is TrsmAsync on complex matrices, op ∈ {N, T, C}.
func (h *Handle) ZtrsmAsync(side Side, uplo Uplo, ta Trans, diag Diag, alpha complex128, a, b *xkrt.Matrix) {
	trsmLoop(h, side, uplo, ta, diag, alpha, a, b)
}

func trsmLoop[T elem](h *Handle, side Side, uplo Uplo, ta Trans, diag Diag, alpha T, a, b *xkrt.Matrix) {
	requireSquareGrid[T]("trsm", a)
	mt, nt := b.Rows(), b.Cols()
	if side == Left && a.Rows() != mt {
		panic(fmt.Sprintf("core: trsm left A grid %d vs B rows %d", a.Rows(), mt))
	}
	if side == Right && a.Rows() != nt {
		panic(fmt.Sprintf("core: trsm right A grid %d vs B cols %d", a.Rows(), nt))
	}
	if alpha == 0 {
		b.EachTile(func(_, _ int, t *cache.Tile) { scalTask[T](h, 0, t, 0) })
		return
	}
	effLower := (uplo == Lower) == (ta == NoTrans)

	if side == Left {
		// Forward over the effective triangle: panel k is solved, then
		// eliminated from the not-yet-solved rows.
		for x := 0; x < mt; x++ {
			k := x
			if !effLower {
				k = mt - 1 - x
			}
			lalpha := T(1)
			if x == 0 {
				lalpha = alpha
			}
			prio := mt - x // diagonal first
			for j := 0; j < nt; j++ {
				trsmTask(h, Left, uplo, ta, diag, lalpha, a.Tile(k, k), b.Tile(k, j), prio)
			}
			for y := x + 1; y < mt; y++ {
				i := y
				if !effLower {
					i = mt - 1 - y
				}
				// B[i,j] -= op(A)[i,k]·X[k,j]; the first panel (x == 0)
				// touches every remaining tile first and applies alpha.
				bta := T(1)
				if x == 0 {
					bta = alpha
				}
				for j := 0; j < nt; j++ {
					gemmTask(h, ta, NoTrans, -1, opTile(ta, a, i, k), b.Tile(k, j), bta, b.Tile(i, j), prio-1)
				}
			}
			if h.stopped() {
				return
			}
		}
		return
	}

	// Side Right: X·op(A) = alpha·B. Solve along columns of the effective
	// triangle: with op(A) effectively lower the last column panel is
	// independent, so traverse k descending; effectively upper ascending.
	for x := 0; x < nt; x++ {
		k := nt - 1 - x
		if !effLower {
			k = x
		}
		lalpha := T(1)
		if x == 0 {
			lalpha = alpha
		}
		prio := nt - x
		for i := 0; i < mt; i++ {
			trsmTask(h, Right, uplo, ta, diag, lalpha, a.Tile(k, k), b.Tile(i, k), prio)
		}
		for y := x + 1; y < nt; y++ {
			n := nt - 1 - y
			if !effLower {
				n = y
			}
			bta := T(1)
			if x == 0 {
				bta = alpha
			}
			// B[i,n] -= X[i,k]·op(A)[k,n].
			for i := 0; i < mt; i++ {
				gemmTask(h, NoTrans, ta, -1, b.Tile(i, k), opTile(ta, a, k, n), bta, b.Tile(i, n), prio-1)
			}
		}
		if h.stopped() {
			return
		}
	}
}
