// Package zblas is the reference implementation of the complex level-3
// routines completing the paper's "9 standard BLAS subroutines" (§IV-D):
// ZGEMM plus the Hermitian HEMM, HERK and HER2K. Operands use the
// interleaved complex representation of matrix.ZMat, so the same tiles
// flow through the multi-GPU cache and runtime as float64 payloads.
//
// As with hostblas, these serve both as ground truth for the tiled
// algorithms and as the kernel bodies in functional mode.
package zblas

import (
	"fmt"

	"xkblas/internal/blasops"
	"xkblas/internal/matrix"
)

type (
	Trans = blasops.Trans
	Side  = blasops.Side
	Uplo  = blasops.Uplo
)

// Flag constants re-exported from blasops.
const (
	NoTrans   = blasops.NoTrans
	Transpose = blasops.Transpose
	ConjTrans = blasops.ConjTrans
	Left      = blasops.Left
	Right     = blasops.Right
	Lower     = blasops.Lower
	Upper     = blasops.Upper
)

func conj(x complex128) complex128 { return complex(real(x), -imag(x)) }

// opAt reads element (i,j) of op(A) for op ∈ {N, T, C}.
func opAt(t Trans, a matrix.ZMat, i, j int) complex128 {
	switch t {
	case NoTrans:
		return a.At(i, j)
	case Transpose:
		return a.At(j, i)
	case ConjTrans:
		return conj(a.At(j, i))
	default:
		panic(fmt.Sprintf("zblas: bad trans %q", t))
	}
}

// hermAt reads element (i,j) of a Hermitian matrix stored in one triangle
// (the diagonal is taken as real, per the BLAS contract).
func hermAt(uplo Uplo, a matrix.ZMat, i, j int) complex128 {
	if i == j {
		return complex(real(a.At(i, i)), 0)
	}
	stored := (uplo == Lower && i > j) || (uplo == Upper && i < j)
	if stored {
		return a.At(i, j)
	}
	return conj(a.At(j, i))
}

func scale(beta complex128, c matrix.ZMat) {
	switch beta {
	case 1:
		return
	case 0:
		for j := 0; j < c.N; j++ {
			for i := 0; i < c.M; i++ {
				c.Set(i, j, 0)
			}
		}
	default:
		for j := 0; j < c.N; j++ {
			for i := 0; i < c.M; i++ {
				c.Set(i, j, beta*c.At(i, j))
			}
		}
	}
}

// Gemm computes C = alpha·op(A)·op(B) + beta·C (ZGEMM), with op ∈ {N,T,C}.
func Gemm(ta, tb Trans, alpha complex128, a, b matrix.ZMat, beta complex128, c matrix.ZMat) {
	m, n := c.M, c.N
	var k int
	if ta == NoTrans {
		if a.M != m {
			panic("zblas: gemm A rows mismatch")
		}
		k = a.N
	} else {
		if a.N != m {
			panic("zblas: gemm op(A) rows mismatch")
		}
		k = a.M
	}
	if tb == NoTrans {
		if b.M != k || b.N != n {
			panic("zblas: gemm B shape mismatch")
		}
	} else if b.N != k || b.M != n {
		panic("zblas: gemm op(B) shape mismatch")
	}
	scale(beta, c)
	if alpha == 0 {
		return
	}
	for j := 0; j < n; j++ {
		for l := 0; l < k; l++ {
			blj := alpha * opAt(tb, b, l, j)
			if blj == 0 {
				continue
			}
			for i := 0; i < m; i++ {
				c.Add(i, j, opAt(ta, a, i, l)*blj)
			}
		}
	}
}

// Hemm computes C = alpha·A·B + beta·C (side Left, A Hermitian m×m) or
// C = alpha·B·A + beta·C (side Right, A Hermitian n×n).
func Hemm(side Side, uplo Uplo, alpha complex128, a, b matrix.ZMat, beta complex128, c matrix.ZMat) {
	m, n := c.M, c.N
	if b.M != m || b.N != n {
		panic("zblas: hemm B shape mismatch")
	}
	dim := m
	if side == Right {
		dim = n
	}
	if a.M != dim || a.N != dim {
		panic("zblas: hemm A shape mismatch")
	}
	scale(beta, c)
	if alpha == 0 {
		return
	}
	if side == Left {
		for j := 0; j < n; j++ {
			for l := 0; l < m; l++ {
				blj := alpha * b.At(l, j)
				if blj == 0 {
					continue
				}
				for i := 0; i < m; i++ {
					c.Add(i, j, hermAt(uplo, a, i, l)*blj)
				}
			}
		}
		return
	}
	for j := 0; j < n; j++ {
		for l := 0; l < n; l++ {
			alj := alpha * hermAt(uplo, a, l, j)
			if alj == 0 {
				continue
			}
			for i := 0; i < m; i++ {
				c.Add(i, j, b.At(i, l)*alj)
			}
		}
	}
}

// Herk computes C = alpha·op(A)·op(A)ᴴ + beta·C on the uplo triangle of
// the n×n Hermitian C. alpha and beta are real (BLAS contract); op is N
// (A n×k) or ConjTrans (A k×n). The imaginary parts of the diagonal are
// set to zero. At beta = 0, C is not read.
func Herk(uplo Uplo, trans Trans, alpha float64, a matrix.ZMat, beta float64, c matrix.ZMat) {
	if trans == Transpose {
		panic("zblas: herk trans must be N or C")
	}
	n := c.N
	if c.M != n {
		panic("zblas: herk C must be square")
	}
	var k int
	if trans == NoTrans {
		if a.M != n {
			panic("zblas: herk A rows mismatch")
		}
		k = a.N
	} else {
		if a.N != n {
			panic("zblas: herk op(A) rows mismatch")
		}
		k = a.M
	}
	at := func(i, l int) complex128 {
		if trans == NoTrans {
			return a.At(i, l)
		}
		return conj(a.At(l, i))
	}
	for j := 0; j < n; j++ {
		lo, hi := triRange(uplo, j, n)
		for i := lo; i < hi; i++ {
			var s complex128
			for l := 0; l < k; l++ {
				s += at(i, l) * conj(at(j, l))
			}
			v := complex(alpha, 0) * s
			if beta != 0 {
				v += complex(beta, 0) * c.At(i, j)
			}
			if i == j {
				v = complex(real(v), 0)
			}
			c.Set(i, j, v)
		}
	}
}

// Her2k computes C = alpha·op(A)·op(B)ᴴ + conj(alpha)·op(B)·op(A)ᴴ +
// beta·C on the uplo triangle of the Hermitian C; beta is real. At
// beta = 0, C is not read.
func Her2k(uplo Uplo, trans Trans, alpha complex128, a, b matrix.ZMat, beta float64, c matrix.ZMat) {
	if trans == Transpose {
		panic("zblas: her2k trans must be N or C")
	}
	n := c.N
	if c.M != n {
		panic("zblas: her2k C must be square")
	}
	var k int
	if trans == NoTrans {
		if a.M != n || b.M != n || a.N != b.N {
			panic("zblas: her2k operand shapes mismatch")
		}
		k = a.N
	} else {
		if a.N != n || b.N != n || a.M != b.M {
			panic("zblas: her2k operand shapes mismatch")
		}
		k = a.M
	}
	at := func(m matrix.ZMat, i, l int) complex128 {
		if trans == NoTrans {
			return m.At(i, l)
		}
		return conj(m.At(l, i))
	}
	for j := 0; j < n; j++ {
		lo, hi := triRange(uplo, j, n)
		for i := lo; i < hi; i++ {
			var s complex128
			for l := 0; l < k; l++ {
				s += alpha*at(a, i, l)*conj(at(b, j, l)) +
					conj(alpha)*at(b, i, l)*conj(at(a, j, l))
			}
			v := s
			if beta != 0 {
				v += complex(beta, 0) * c.At(i, j)
			}
			if i == j {
				v = complex(real(v), 0)
			}
			c.Set(i, j, v)
		}
	}
}

// Scal scales c by beta; beta = 0 stores zeros whatever c held. It is the
// alpha = 0 path of the tiled complex routines.
func Scal(beta complex128, c matrix.ZMat) { scale(beta, c) }

// ScalTri scales the uplo triangle (with diagonal) of the square Hermitian
// c by the real beta and zeroes the diagonal's imaginary parts, as Herk
// and Her2k do: the alpha = 0 path of HERK and HER2K on a diagonal tile.
// beta = 0 stores zeros whatever the triangle held.
func ScalTri(uplo Uplo, beta float64, c matrix.ZMat) {
	for j := 0; j < c.N; j++ {
		lo, hi := triRange(uplo, j, c.N)
		for i := lo; i < hi; i++ {
			var v complex128
			if beta != 0 {
				v = complex(beta, 0) * c.At(i, j)
			}
			if i == j {
				v = complex(real(v), 0)
			}
			c.Set(i, j, v)
		}
	}
}

func triRange(uplo Uplo, j, n int) (lo, hi int) {
	if uplo == Lower {
		return j, n
	}
	return 0, j + 1
}

// HermitianizeFrom builds the full Hermitian matrix implied by the stored
// triangle of src into dst (test helper).
func HermitianizeFrom(uplo Uplo, src, dst matrix.ZMat) {
	n := src.N
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			dst.Set(i, j, hermAt(uplo, src, i, j))
		}
	}
}
