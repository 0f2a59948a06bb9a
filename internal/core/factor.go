package core

import (
	"fmt"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/hostblas"
	"xkblas/internal/matrix"
	"xkblas/internal/xkrt"
)

// One-sided factorizations built on the BLAS-3 task layer — the MUMPS-style
// dense workloads the paper's conclusion motivates. Unlike the examples,
// these compose *fully* asynchronously: the diagonal-tile factorizations
// are ordinary dataflow tasks, so panel k+1 starts as soon as its
// dependencies resolve while panel k's trailing update is still running
// (the lookahead that tiled right-looking algorithms exhibit naturally
// under a dependent-task runtime).

// potf2Task submits the diagonal Cholesky tile factorization.
func (h *Handle) potf2Task(uplo Uplo, at *cache.Tile, prio int) {
	n := at.N
	spec := xkrt.KernelSpec{
		Routine: blasops.Potrf,
		M:       n, N: n, K: n,
		Flops: float64(n) * float64(n) * float64(n) / 3,
	}
	if h.RT.Cache.Functional {
		spec.Body = func(b []matrix.View) {
			if err := hostblas.Potf2(uplo, b[0]); err != nil {
				panic(fmt.Sprintf("core: %v", err))
			}
		}
	}
	h.RT.Submit("potf2", spec, prio, xkrt.RW(at))
}

// getf2Task submits the diagonal LU tile factorization (no pivoting).
func (h *Handle) getf2Task(at *cache.Tile, prio int) {
	n := at.N
	spec := xkrt.KernelSpec{
		Routine: blasops.Getrf,
		M:       n, N: n, K: n,
		Flops: 2 * float64(n) * float64(n) * float64(n) / 3,
	}
	if h.RT.Cache.Functional {
		spec.Body = func(b []matrix.View) {
			if err := hostblas.Getf2(b[0]); err != nil {
				panic(fmt.Sprintf("core: %v", err))
			}
		}
	}
	h.RT.Submit("getf2", spec, prio, xkrt.RW(at))
}

// PotrfAsync submits the tiled Cholesky factorization of the symmetric
// positive-definite A in place: A = L·Lᵀ (uplo Lower) or A = Uᵀ·U (uplo
// Upper), stored in the uplo triangle. The PLASMA pdpotrf right-looking
// loop nest; the opposite triangle is not referenced.
func (h *Handle) PotrfAsync(uplo Uplo, a *xkrt.Matrix) {
	requireSquareGrid[float64]("potrf", a)
	for k := 0; k < a.Rows(); k++ {
		h.potrfPanel(uplo, a, k)
	}
}

// potrfPanel submits panel k of the tiled Cholesky.
func (h *Handle) potrfPanel(uplo Uplo, a *xkrt.Matrix, k int) {
	nt := a.Rows()
	{
		prio := 2 * (nt - k) // panel work is the critical path
		h.potf2Task(uplo, a.Tile(k, k), prio)
		if uplo == Lower {
			for i := k + 1; i < nt; i++ {
				// L[i,k] = A[i,k]·L[k,k]⁻ᵀ
				trsmTask[float64](h, Right, Lower, Transpose, NonUnit, 1, a.Tile(k, k), a.Tile(i, k), prio-1)
			}
			for i := k + 1; i < nt; i++ {
				// A[i,i] -= L[i,k]·L[i,k]ᵀ
				syrkTask[float64](h, Lower, NoTrans, -1, a.Tile(i, k), 1, a.Tile(i, i), prio-2)
				// A[i,j] -= L[i,k]·L[j,k]ᵀ for k < j < i
				for j := k + 1; j < i; j++ {
					gemmTask[float64](h, NoTrans, Transpose, -1, a.Tile(i, k), a.Tile(j, k), 1, a.Tile(i, j), prio-2)
				}
			}
			return
		}
		for j := k + 1; j < nt; j++ {
			// U[k,j] = U[k,k]⁻ᵀ·A[k,j]
			trsmTask[float64](h, Left, Upper, Transpose, NonUnit, 1, a.Tile(k, k), a.Tile(k, j), prio-1)
		}
		for j := k + 1; j < nt; j++ {
			// A[j,j] -= U[k,j]ᵀ·U[k,j]
			syrkTask[float64](h, Upper, Transpose, -1, a.Tile(k, j), 1, a.Tile(j, j), prio-2)
			// A[i,j] -= U[k,i]ᵀ·U[k,j] for k < i < j
			for i := k + 1; i < j; i++ {
				gemmTask[float64](h, Transpose, NoTrans, -1, a.Tile(k, i), a.Tile(k, j), 1, a.Tile(i, j), prio-2)
			}
		}
	}
}

// GetrfNoPivAsync submits the tiled LU factorization of A in place without
// pivoting (unit-lower L below the diagonal, U on and above): the caller
// must guarantee numerical stability (e.g. diagonal dominance), the usual
// contract of tiled no-pivoting LU (PLASMA pdgetrf_nopiv).
func (h *Handle) GetrfNoPivAsync(a *xkrt.Matrix) {
	requireSquareGrid[float64]("getrf", a)
	for k := 0; k < a.Rows(); k++ {
		h.getrfPanel(a, k)
	}
}

// getrfPanel submits panel k of the tiled no-pivoting LU.
func (h *Handle) getrfPanel(a *xkrt.Matrix, k int) {
	nt := a.Rows()
	{
		prio := 2 * (nt - k)
		h.getf2Task(a.Tile(k, k), prio)
		for j := k + 1; j < nt; j++ {
			// U[k,j] = L[k,k]⁻¹·A[k,j]
			trsmTask[float64](h, Left, Lower, NoTrans, Unit, 1, a.Tile(k, k), a.Tile(k, j), prio-1)
		}
		for i := k + 1; i < nt; i++ {
			// L[i,k] = A[i,k]·U[k,k]⁻¹
			trsmTask[float64](h, Right, Upper, NoTrans, NonUnit, 1, a.Tile(k, k), a.Tile(i, k), prio-1)
		}
		for i := k + 1; i < nt; i++ {
			for j := k + 1; j < nt; j++ {
				// A[i,j] -= L[i,k]·U[k,j]
				gemmTask[float64](h, NoTrans, NoTrans, -1, a.Tile(i, k), a.Tile(k, j), 1, a.Tile(i, j), prio-2)
			}
		}
	}
}

// PanelFactorAsync submits only panel k of a tiled factorization (Potrf
// lower or no-pivoting Getrf) — a building block for harnesses emulating
// fork-join, panel-synchronous execution.
func (h *Handle) PanelFactorAsync(r blasops.Routine, a *xkrt.Matrix, k int) {
	switch r {
	case blasops.Potrf:
		h.potrfPanel(Lower, a, k)
	case blasops.Getrf:
		h.getrfPanel(a, k)
	default:
		panic(fmt.Sprintf("core: PanelFactorAsync does not support %v", r))
	}
}
