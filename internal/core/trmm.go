package core

import (
	"fmt"

	"xkblas/internal/cache"
	"xkblas/internal/xkrt"
)

// TrmmAsync submits B = alpha·op(A)·B (side Left) or B = alpha·B·op(A)
// (side Right) in place, A triangular in the uplo triangle with the diag
// convention — the PLASMA pdtrmm scheme. Each B tile receives one TRMM
// diagonal update plus GEMM updates that read B tiles not yet overwritten;
// the traversal order guarantees those reads see original values, and the
// runtime's sequential dependency semantics enforce it at execution time.
func (h *Handle) TrmmAsync(side Side, uplo Uplo, ta Trans, diag Diag, alpha float64, a, b *xkrt.Matrix) {
	trmmLoop(h, side, uplo, ta, diag, alpha, a, b)
}

// ZtrmmAsync is TrmmAsync on complex matrices, op ∈ {N, T, C}.
func (h *Handle) ZtrmmAsync(side Side, uplo Uplo, ta Trans, diag Diag, alpha complex128, a, b *xkrt.Matrix) {
	trmmLoop(h, side, uplo, ta, diag, alpha, a, b)
}

func trmmLoop[T elem](h *Handle, side Side, uplo Uplo, ta Trans, diag Diag, alpha T, a, b *xkrt.Matrix) {
	requireSquareGrid[T]("trmm", a)
	mt, nt := b.Rows(), b.Cols()
	if side == Left && a.Rows() != mt {
		panic(fmt.Sprintf("core: trmm left A grid %d vs B rows %d", a.Rows(), mt))
	}
	if side == Right && a.Rows() != nt {
		panic(fmt.Sprintf("core: trmm right A grid %d vs B cols %d", a.Rows(), nt))
	}
	if alpha == 0 {
		b.EachTile(func(_, _ int, t *cache.Tile) { scalTask[T](h, 0, t, 0) })
		return
	}

	// effLower: op(A) is effectively lower triangular. Off-diagonal blocks
	// of op(A) are zero outside that effective triangle, so each B tile
	// only takes contributions from one side; opTile resolves the stored
	// block (A[i,k] for NoTrans, A[k,i] transposed otherwise).
	effLower := (uplo == Lower) == (ta == NoTrans)

	// awayFromDiag lists the contribution indices for row/column d of an
	// n-tile triangle, nearest the diagonal first.
	awayFromDiag := func(d, n int, below bool) []int {
		var ks []int
		if below {
			for k := d - 1; k >= 0; k-- {
				ks = append(ks, k)
			}
		} else {
			for k := d + 1; k < n; k++ {
				ks = append(ks, k)
			}
		}
		return ks
	}

	if side == Left {
		// B[i,j] = alpha·(op(A)[i,i]·B[i,j] + Σ op(A)[i,k]·B[k,j]).
		// Lower: contributions from k<i → process i descending so B[k,j]
		// is still original when read. Upper: ascending.
		for x := 0; x < mt; x++ {
			i := x
			if effLower {
				i = mt - 1 - x
			}
			for j := 0; j < nt; j++ {
				bt := b.Tile(i, j)
				trmmTask(h, Left, uplo, ta, diag, alpha, a.Tile(i, i), bt, 0)
				// Accumulate moving away from the diagonal: row i±1 first.
				// The next row's diagonal TRMM only waits for this chain's
				// read of its tile, so near-diagonal-first ordering turns
				// the column into a pipelined wavefront instead of a full
				// serialization (the PLASMA pdtrmm ordering).
				for _, k := range awayFromDiag(i, mt, effLower) {
					gemmTask(h, ta, NoTrans, alpha, opTile(ta, a, i, k), b.Tile(k, j), 1, bt, 0)
				}
				if h.stopped() {
					return
				}
			}
		}
		return
	}

	// Side Right: B[i,j] = alpha·(B[i,j]·op(A)[j,j] + Σ B[i,k]·op(A)[k,j]).
	// op(A) lower: contributions from k>j → ascending j keeps B[i,k]
	// original. Upper: descending.
	for x := 0; x < nt; x++ {
		j := x
		if !effLower {
			j = nt - 1 - x
		}
		for i := 0; i < mt; i++ {
			bt := b.Tile(i, j)
			trmmTask(h, Right, uplo, ta, diag, alpha, a.Tile(j, j), bt, 0)
			// Near-diagonal-first, as on the Left side.
			for _, k := range awayFromDiag(j, nt, !effLower) {
				gemmTask(h, NoTrans, ta, alpha, b.Tile(i, k), opTile(ta, a, k, j), 1, bt, 0)
			}
			if h.stopped() {
				return
			}
		}
	}
}
