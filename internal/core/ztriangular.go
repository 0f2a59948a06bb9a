package core

import (
	"fmt"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/matrix"
	"xkblas/internal/xkrt"
	"xkblas/internal/zblas"
)

// Tiled complex triangular routines (ZTRMM/ZTRSM), mirroring the real
// loop nests with complex tile kernels. With these the library covers the
// complete complex triangular pair alongside the Hermitian set.

func (h *Handle) ztrmmTask(side Side, uplo Uplo, ta Trans, diag Diag, alpha complex128, at, bt *cache.Tile, prio int) {
	m, n := zTileDims(bt)
	dim := m
	if side == Right {
		dim = n
	}
	spec := xkrt.KernelSpec{
		Routine: blasops.Trmm,
		M:       m, N: n, K: dim,
		Flops: 4 * float64(n) * float64(m) * float64(dim),
	}
	if h.RT.Cache.Functional {
		spec.Body = func(b []matrix.View) {
			zblas.Trmm(side, uplo, ta, diag, alpha, zbuf(b[0]), zbuf(b[1]))
		}
	}
	h.RT.Submit("ztrmm", spec, prio, xkrt.R(at), xkrt.RW(bt))
}

func (h *Handle) ztrsmTask(side Side, uplo Uplo, ta Trans, diag Diag, alpha complex128, at, bt *cache.Tile, prio int) {
	m, n := zTileDims(bt)
	dim := m
	if side == Right {
		dim = n
	}
	spec := xkrt.KernelSpec{
		Routine: blasops.Trsm,
		M:       m, N: n, K: dim,
		Flops: 4 * float64(n) * float64(m) * float64(dim),
	}
	if h.RT.Cache.Functional {
		spec.Body = func(b []matrix.View) {
			zblas.Trsm(side, uplo, ta, diag, alpha, zbuf(b[0]), zbuf(b[1]))
		}
	}
	h.RT.Submit("ztrsm", spec, prio, xkrt.R(at), xkrt.RW(bt))
}

// ZtrmmAsync submits B = alpha·op(A)·B (side Left) or B = alpha·B·op(A)
// (side Right) in place, with complex triangular A and op ∈ {N, T, C} —
// the complex counterpart of TrmmAsync with the same near-diagonal-first
// wavefront ordering.
func (h *Handle) ZtrmmAsync(side Side, uplo Uplo, ta Trans, diag Diag, alpha complex128, a, b *xkrt.Matrix) {
	requireSquareGridZ("ztrmm", a)
	mt, nt := b.Rows(), b.Cols()
	if side == Left && a.Rows() != mt {
		panic(fmt.Sprintf("core: ztrmm left A grid %d vs B rows %d", a.Rows(), mt))
	}
	if side == Right && a.Rows() != nt {
		panic(fmt.Sprintf("core: ztrmm right A grid %d vs B cols %d", a.Rows(), nt))
	}
	effLower := (uplo == Lower) == (ta == NoTrans)
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
		for x := 0; x < mt; x++ {
			i := x
			if effLower {
				i = mt - 1 - x
			}
			for j := 0; j < nt; j++ {
				bt := b.Tile(i, j)
				h.ztrmmTask(Left, uplo, ta, diag, alpha, a.Tile(i, i), bt, 0)
				for _, k := range awayFromDiag(i, mt, effLower) {
					h.zgemmTask(ta, NoTrans, alpha, opTile(ta, a, i, k), b.Tile(k, j), 1, bt, 0)
				}
			}
		}
		return
	}
	for x := 0; x < nt; x++ {
		j := x
		if !effLower {
			j = nt - 1 - x
		}
		for i := 0; i < mt; i++ {
			bt := b.Tile(i, j)
			h.ztrmmTask(Right, uplo, ta, diag, alpha, a.Tile(j, j), bt, 0)
			for _, k := range awayFromDiag(j, nt, !effLower) {
				h.zgemmTask(NoTrans, ta, alpha, b.Tile(i, k), opTile(ta, a, k, j), 1, bt, 0)
			}
		}
	}
}

// ZtrsmAsync submits the in-place complex solve op(A)·X = alpha·B (side
// Left) or X·op(A) = alpha·B (side Right), op ∈ {N, T, C} — the complex
// counterpart of TrsmAsync with the same lalpha panel scheme.
func (h *Handle) ZtrsmAsync(side Side, uplo Uplo, ta Trans, diag Diag, alpha complex128, a, b *xkrt.Matrix) {
	requireSquareGridZ("ztrsm", a)
	mt, nt := b.Rows(), b.Cols()
	if side == Left && a.Rows() != mt {
		panic(fmt.Sprintf("core: ztrsm left A grid %d vs B rows %d", a.Rows(), mt))
	}
	if side == Right && a.Rows() != nt {
		panic(fmt.Sprintf("core: ztrsm right A grid %d vs B cols %d", a.Rows(), nt))
	}
	effLower := (uplo == Lower) == (ta == NoTrans)
	if side == Left {
		for x := 0; x < mt; x++ {
			k := x
			if !effLower {
				k = mt - 1 - x
			}
			lalpha := complex128(1)
			if x == 0 {
				lalpha = alpha
			}
			prio := mt - x
			for j := 0; j < nt; j++ {
				h.ztrsmTask(Left, uplo, ta, diag, lalpha, a.Tile(k, k), b.Tile(k, j), prio)
			}
			for y := x + 1; y < mt; y++ {
				i := y
				if !effLower {
					i = mt - 1 - y
				}
				bta := complex128(1)
				if x == 0 {
					bta = alpha
				}
				for j := 0; j < nt; j++ {
					h.zgemmTask(ta, NoTrans, -1, opTile(ta, a, i, k), b.Tile(k, j), bta, b.Tile(i, j), prio-1)
				}
			}
		}
		return
	}
	for x := 0; x < nt; x++ {
		k := nt - 1 - x
		if !effLower {
			k = x
		}
		lalpha := complex128(1)
		if x == 0 {
			lalpha = alpha
		}
		prio := nt - x
		for i := 0; i < mt; i++ {
			h.ztrsmTask(Right, uplo, ta, diag, lalpha, a.Tile(k, k), b.Tile(i, k), prio)
		}
		for y := x + 1; y < nt; y++ {
			n := nt - 1 - y
			if !effLower {
				n = y
			}
			bta := complex128(1)
			if x == 0 {
				bta = alpha
			}
			for i := 0; i < mt; i++ {
				h.zgemmTask(NoTrans, ta, -1, b.Tile(i, k), opTile(ta, a, k, n), bta, b.Tile(i, n), prio-1)
			}
		}
	}
}
