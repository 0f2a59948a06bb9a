// Package hostblas implements the six FP64 level-3 BLAS subroutines on
// column-major views. It plays two roles in the reproduction:
//
//   - ground truth: every tiled multi-GPU algorithm is checked against it in
//     functional mode;
//   - kernel body: in functional mode, simulated GPU kernels execute these
//     routines on the tile operands while the simulator charges modelled
//     V100 time.
//
// Full flag coverage (trans/side/uplo/diag) is implemented with the netlib
// semantics. The kernels are loops over column slices: each flag is decided
// once per call (or per column), never per element, and an operand whose
// needed access is a row is first copied, transposed or symmetrized, into a
// pooled scratch buffer, so a call allocates nothing once the pool is warm
// (the parallel GEMM's goroutines aside).
//
// Every output element goes through the same IEEE operations in the same
// order as the element-at-a-time loops the package began with: the same
// products, summed in ascending contraction index, the same skipped zero
// scalars (a zero alpha·op(B)[l,j] in GEMM and its counterpart in SYMM, a
// zero element of op(A) in TRMM), and the same final scaling or division.
// Products that feed an addition are written float64(x*y), so no target
// fuses them into a multiply-add. Those original loops live on as the test
// oracle in reference_test.go, and TestKernelsMatchReferenceBitExact
// compares the two bit for bit. This rule is what lets a kernel rewrite, or
// the parallel GEMM, leave every functional result bit-identical.
package hostblas

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"xkblas/internal/blasops"
	"xkblas/internal/matrix"
)

// GEMM is the dominant functional-mode kernel (every tiled algorithm lowers
// most of its flops onto it), so it alone is parallelised: the output
// columns are block-partitioned across goroutines. Each goroutine owns a
// disjoint column range of C and every element keeps its sequential
// operation order, so the result is bit-identical to the sequential kernel
// regardless of the worker count.

// gemmParallelMinFlops is the fused-multiply-add count below which the
// goroutine fan-out costs more than it saves and Gemm stays sequential.
const gemmParallelMinFlops = 1 << 20

// gemmWorkers holds the configured worker count; 0 selects GOMAXPROCS.
var gemmWorkers atomic.Int32

// SetParallelism sets the number of goroutines Gemm may use: n ≤ 1 forces
// the sequential kernel (tests use this), 0 restores the GOMAXPROCS
// default. The result is bit-identical at every setting.
func SetParallelism(n int) { gemmWorkers.Store(int32(n)) }

// Parallelism reports the effective Gemm worker count. Per the
// SetParallelism contract, every stored value ≤ 1 — including negatives —
// selects the sequential kernel; only the 0 default falls back to
// GOMAXPROCS.
func Parallelism() int {
	n := int(gemmWorkers.Load())
	if n > 0 {
		return n
	}
	if n < 0 {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

type (
	// Trans etc. are re-exported aliases so kernel code reads naturally.
	Trans = blasops.Trans
	Side  = blasops.Side
	Uplo  = blasops.Uplo
	Diag  = blasops.Diag
)

// Flag constants re-exported from blasops.
const (
	NoTrans   = blasops.NoTrans
	Transpose = blasops.Transpose
	Left      = blasops.Left
	Right     = blasops.Right
	Lower     = blasops.Lower
	Upper     = blasops.Upper
	NonUnit   = blasops.NonUnit
	Unit      = blasops.Unit
)

// scratch pools the work buffers of the kernels that copy an operand.
var scratch = sync.Pool{New: func() any { return new([]float64) }}

// getScratch returns a pooled buffer of n elements with arbitrary contents;
// the caller returns it with scratch.Put.
func getScratch(n int) *[]float64 {
	p := scratch.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

// col returns column j of v as a slice of its v.M elements.
func col(v matrix.View, j int) []float64 {
	if v.M == 0 {
		return nil
	}
	o := j * v.LD
	return v.Data[o : o+v.M]
}

// dense wraps buf as an m×n view with ld = m.
func dense(buf []float64, m, n int) matrix.View {
	ld := m
	if ld == 0 {
		ld = 1
	}
	return matrix.View{Data: buf, M: m, N: n, LD: ld}
}

// transposeInto writes aᵀ into buf and returns it as a dense view.
func transposeInto(a matrix.View, buf []float64) matrix.View {
	t := dense(buf, a.N, a.M)
	for j := 0; j < a.N; j++ {
		for i, x := range col(a, j) {
			buf[i*t.LD+j] = x
		}
	}
	return t
}

// scal computes x = alpha·x.
func scal(alpha float64, x []float64) {
	for i, v := range x {
		x[i] = alpha * v
	}
}

// scaleBeta applies the beta·C of a level-3 update: beta = 1 leaves x as
// it is and beta = 0 stores zeros whatever x held.
func scaleBeta(beta float64, x []float64) {
	switch beta {
	case 1:
	case 0:
		clear(x)
	default:
		scal(beta, x)
	}
}

func scale(beta float64, c matrix.View) {
	for j := 0; j < c.N; j++ {
		scaleBeta(beta, col(c, j))
	}
}

// axpy computes y += x·alpha.
func axpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += float64(v * alpha)
	}
}

// axpy4 computes c[q] += x·b[q] for the four columns q = 0..3.
//
// It and axpy4x2 stay out of line: inlined into gemmCols, the loop would
// spill its index.
//
//go:noinline
func axpy4(x []float64, b [4]float64, c [4][]float64) {
	b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
	c0, c1, c2, c3 := c[0][:len(x)], c[1][:len(x)], c[2][:len(x)], c[3][:len(x)]
	for i, v := range x {
		c0[i] += float64(v * b0)
		c1[i] += float64(v * b1)
		c2[i] += float64(v * b2)
		c3[i] += float64(v * b3)
	}
}

// axpy4x2 computes c[q] += x·b[q] and then c[q] += y·e[q] for the four
// columns q = 0..3 in one pass, each sum rounded in that order.
//
//go:noinline
func axpy4x2(x, y []float64, b, e [4]float64, c [4][]float64) {
	b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
	e0, e1, e2, e3 := e[0], e[1], e[2], e[3]
	y = y[:len(x)]
	c0, c1, c2, c3 := c[0][:len(x)], c[1][:len(x)], c[2][:len(x)], c[3][:len(x)]
	for i, v := range x {
		w := y[i]
		c0[i] = c0[i] + float64(v*b0) + float64(w*e0)
		c1[i] = c1[i] + float64(v*b1) + float64(w*e1)
		c2[i] = c2[i] + float64(v*b2) + float64(w*e2)
		c3[i] = c3[i] + float64(v*b3) + float64(w*e3)
	}
}

// axpyNZ computes y += x·alpha over the nonzero elements of x only.
func axpyNZ(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, v := range x {
		if v != 0 {
			y[i] += float64(v * alpha)
		}
	}
}

// axpySub computes y -= x·alpha.
func axpySub(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] -= float64(v * alpha)
	}
}

// dot returns 0 + x[0]·y[0] + x[1]·y[1] + …, summed in index order.
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	s := 0.0
	for i, v := range x {
		s += float64(v * y[i])
	}
	return s
}

// dot4 returns dot(xq, y) for the four vectors q = 0..3.
func dot4(x0, x1, x2, x3, y []float64) (s0, s1, s2, s3 float64) {
	x0, x1, x2, x3 = x0[:len(y)], x1[:len(y)], x2[:len(y)], x3[:len(y)]
	for l, v := range y {
		s0 += float64(x0[l] * v)
		s1 += float64(x1[l] * v)
		s2 += float64(x2[l] * v)
		s3 += float64(x3[l] * v)
	}
	return
}

// dotNZ returns s + x[l]·y[l] summed in index order over the nonzero
// elements of x only.
func dotNZ(s float64, x, y []float64) float64 {
	y = y[:len(x)]
	for i, v := range x {
		if v != 0 {
			s += float64(v * y[i])
		}
	}
	return s
}

// dotSub returns s − x[0]·y[0] − x[1]·y[1] − …, in index order.
func dotSub(s float64, x, y []float64) float64 {
	y = y[:len(x)]
	for i, v := range x {
		s -= float64(v * y[i])
	}
	return s
}

// Gemm computes C = alpha·op(A)·op(B) + beta·C, with C m×n, op(A) m×k and
// op(B) k×n.
func Gemm(ta, tb Trans, alpha float64, a, b matrix.View, beta float64, c matrix.View) {
	m, n := c.M, c.N
	var k int
	if ta == NoTrans {
		if a.M != m {
			panic(fmt.Sprintf("hostblas: gemm A rows %d != C rows %d", a.M, m))
		}
		k = a.N
	} else {
		if a.N != m {
			panic(fmt.Sprintf("hostblas: gemm Aᵀ rows %d != C rows %d", a.N, m))
		}
		k = a.M
	}
	if tb == NoTrans {
		if b.M != k || b.N != n {
			panic(fmt.Sprintf("hostblas: gemm B %dx%d incompatible with k=%d n=%d", b.M, b.N, k, n))
		}
	} else if b.N != k || b.M != n {
		panic(fmt.Sprintf("hostblas: gemm Bᵀ %dx%d incompatible with k=%d n=%d", b.M, b.N, k, n))
	}
	scale(beta, c)
	if alpha == 0 || k == 0 {
		return
	}
	if ta != NoTrans {
		// Columns of op(A) are rows of A: sweep a transposed copy instead.
		buf := getScratch(m * k)
		defer scratch.Put(buf)
		a = transposeInto(a, *buf)
	}
	if workers := Parallelism(); workers > 1 && int64(m)*int64(n)*int64(k) >= gemmParallelMinFlops {
		gemmParallel(min(workers, n), tb, alpha, a, b, c)
		return
	}
	gemmCols(tb, alpha, a, b, c, 0, n)
}

// gemmParallel runs gemmCols on workers disjoint column blocks of C at once.
func gemmParallel(workers int, tb Trans, alpha float64, a, b, c matrix.View) {
	n := c.N
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		j0 := n * w / workers
		j1 := n * (w + 1) / workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			gemmCols(tb, alpha, a, b, c, j0, j1)
		}()
	}
	wg.Wait()
}

// gemmCols accumulates alpha·A·op(B) into columns [j0,j1) of C, four
// columns per pass over one column of A, or over two when both have four
// nonzero scalars. Element C[i,j] receives A[i,l]·(alpha·op(B)[l,j]) in
// ascending l, skipping the l whose scalar is zero, however the columns
// and steps are grouped: the sequential and parallel paths share this
// body, which is what keeps parallel results bit-identical.
func gemmCols(tb Trans, alpha float64, a, b, c matrix.View, j0, j1 int) {
	// op(B)[l,j] is b.Data[l*sl + j*sj].
	sl, sj := 1, b.LD
	if tb != NoTrans {
		sl, sj = b.LD, 1
	}
	k := a.N
	j := j0
	for ; j+4 <= j1; j += 4 {
		cs := [4][]float64{col(c, j), col(c, j+1), col(c, j+2), col(c, j+3)}
		for l := 0; l < k; l++ {
			bl, ok := scalars4(alpha, b.Data, l*sl+j*sj, sj)
			if !ok {
				for q, s := range bl {
					if s != 0 {
						axpy(s, col(a, l), cs[q])
					}
				}
				continue
			}
			if l+1 < k {
				if bn, ok := scalars4(alpha, b.Data, (l+1)*sl+j*sj, sj); ok {
					axpy4x2(col(a, l), col(a, l+1), bl, bn, cs)
					l++
					continue
				}
			}
			axpy4(col(a, l), bl, cs)
		}
	}
	for ; j < j1; j++ {
		cj := col(c, j)
		for l := 0; l < k; l++ {
			if s := alpha * b.Data[l*sl+j*sj]; s != 0 {
				axpy(s, col(a, l), cj)
			}
		}
	}
}

// scalars4 returns alpha·x[o + q·stride] for q = 0..3 and whether none of
// them is zero.
func scalars4(alpha float64, x []float64, o, stride int) (s [4]float64, nonzero bool) {
	s = [4]float64{alpha * x[o], alpha * x[o+stride], alpha * x[o+2*stride], alpha * x[o+3*stride]}
	return s, s[0] != 0 && s[1] != 0 && s[2] != 0 && s[3] != 0
}

// Symm computes C = alpha·A·B + beta·C (side Left, A symmetric m×m) or
// C = alpha·B·A + beta·C (side Right, A symmetric n×n).
func Symm(side Side, uplo Uplo, alpha float64, a, b matrix.View, beta float64, c matrix.View) {
	m, n := c.M, c.N
	if b.M != m || b.N != n {
		panic("hostblas: symm B shape mismatch")
	}
	if side == Left && (a.M != m || a.N != m) {
		panic("hostblas: symm left A must be m×m")
	}
	if side == Right && (a.M != n || a.N != n) {
		panic("hostblas: symm right A must be n×n")
	}
	scale(beta, c)
	if alpha == 0 {
		return
	}
	// A SYMM is a GEMM on the full symmetric matrix.
	buf := getScratch(a.N * a.N)
	defer scratch.Put(buf)
	s := dense(*buf, a.N, a.N)
	SymmetrizeFrom(uplo, a, s)
	if side == Left {
		gemmCols(NoTrans, alpha, s, b, c, 0, n)
	} else {
		gemmCols(NoTrans, alpha, b, s, c, 0, n)
	}
}

// rankUpdate is the final step of SYRK and SYR2K on one element:
// alpha·s + beta·c, where beta = 0 ignores c, which need not be set.
func rankUpdate(alpha, s, beta, c float64) float64 {
	if beta == 0 {
		return alpha * s
	}
	return float64(alpha*s) + float64(beta*c)
}

// Syrk computes the triangle-updating rank-k operation
// C = alpha·op(A)·op(A)ᵀ + beta·C where only the uplo triangle of the n×n C
// is referenced; op(A) is n×k.
func Syrk(uplo Uplo, trans Trans, alpha float64, a matrix.View, beta float64, c matrix.View) {
	n := c.N
	if c.M != n {
		panic("hostblas: syrk C must be square")
	}
	if trans == NoTrans {
		if a.M != n {
			panic("hostblas: syrk A rows mismatch")
		}
	} else if a.N != n {
		panic("hostblas: syrk Aᵀ rows mismatch")
	}
	// Column i of p is row i of op(A), so C[i,j] = dot(p[:,i], p[:,j]).
	p := a
	if trans == NoTrans {
		buf := getScratch(a.M * a.N)
		defer scratch.Put(buf)
		p = transposeInto(a, *buf)
	}
	for j := 0; j < n; j++ {
		cj, pj := col(c, j), col(p, j)
		lo, hi := triRange(uplo, j, n)
		i := lo
		for ; i+4 <= hi; i += 4 {
			s0, s1, s2, s3 := dot4(col(p, i), col(p, i+1), col(p, i+2), col(p, i+3), pj)
			cj[i] = rankUpdate(alpha, s0, beta, cj[i])
			cj[i+1] = rankUpdate(alpha, s1, beta, cj[i+1])
			cj[i+2] = rankUpdate(alpha, s2, beta, cj[i+2])
			cj[i+3] = rankUpdate(alpha, s3, beta, cj[i+3])
		}
		for ; i < hi; i++ {
			cj[i] = rankUpdate(alpha, dot(col(p, i), pj), beta, cj[i])
		}
	}
}

// Syr2k computes C = alpha·(op(A)·op(B)ᵀ + op(B)·op(A)ᵀ) + beta·C on the
// uplo triangle of the n×n C; op(A), op(B) are n×k.
func Syr2k(uplo Uplo, trans Trans, alpha float64, a, b matrix.View, beta float64, c matrix.View) {
	n := c.N
	if c.M != n {
		panic("hostblas: syr2k C must be square")
	}
	if trans == NoTrans {
		if a.M != n || b.M != n {
			panic("hostblas: syr2k A/B rows mismatch")
		}
		if a.N != b.N {
			panic("hostblas: syr2k A/B k mismatch")
		}
	} else {
		if a.N != n || b.N != n {
			panic("hostblas: syr2k Aᵀ/Bᵀ rows mismatch")
		}
		if a.M != b.M {
			panic("hostblas: syr2k A/B k mismatch")
		}
	}
	// Columns of pa, pb are rows of op(A), op(B), as in Syrk.
	pa, pb := a, b
	if trans == NoTrans {
		sz := a.M * a.N
		buf := getScratch(2 * sz)
		defer scratch.Put(buf)
		pa, pb = transposeInto(a, (*buf)[:sz]), transposeInto(b, (*buf)[sz:])
	}
	for j := 0; j < n; j++ {
		cj, aj, bj := col(c, j), col(pa, j), col(pb, j)
		bj = bj[:len(aj)]
		lo, hi := triRange(uplo, j, n)
		for i := lo; i < hi; i++ {
			ai, bi := col(pa, i)[:len(aj)], col(pb, i)[:len(aj)]
			s := 0.0
			for l, x := range aj {
				s += float64(ai[l]*bj[l]) + float64(bi[l]*x)
			}
			cj[i] = rankUpdate(alpha, s, beta, cj[i])
		}
	}
}

// triRange reports the [lo,hi) row range of stored elements in column j of
// an n×n triangle.
func triRange(uplo Uplo, j, n int) (lo, hi int) {
	if uplo == Lower {
		return j, n
	}
	return 0, j + 1
}

// diagAt reads the diagonal element A[l,l] of a triangular matrix whose
// column l is al: 1 for a unit diagonal.
func diagAt(diag Diag, al []float64, l int) float64 {
	if diag == Unit {
		return 1
	}
	return al[l]
}

// Trmm computes B = alpha·op(A)·B (side Left, A triangular m×m) or
// B = alpha·B·op(A) (side Right, A triangular n×n), in place in B. Each
// element is alpha times a sum from 0 over the triangle of op(A) in
// ascending contraction index, skipping zero elements of op(A).
func Trmm(side Side, uplo Uplo, ta Trans, diag Diag, alpha float64, a, b matrix.View) {
	m, n := b.M, b.N
	checkTriangular(side, a, m, n, "trmm")
	buf := getScratch(m)
	defer scratch.Put(buf)
	if side == Left {
		trmmLeft(uplo, ta, diag, alpha, a, b, *buf)
	} else {
		trmmRight(uplo, ta, diag, alpha, a, b, *buf)
	}
}

// trmmLeft replaces each column of B by alpha·op(A) times its copy in x.
func trmmLeft(uplo Uplo, ta Trans, diag Diag, alpha float64, a, b matrix.View, x []float64) {
	m := b.M
	for j := 0; j < b.N; j++ {
		bj := col(b, j)
		copy(x, bj)
		if ta == NoTrans {
			// Column sweep: column l of A adds its x[l] multiples to the
			// rows of its triangle, accumulating in bj.
			clear(bj)
			for l := 0; l < m; l++ {
				al, xl := col(a, l), x[l]
				if d := diagAt(diag, al, l); d != 0 {
					bj[l] += float64(d * xl)
				}
				if uplo == Lower {
					axpyNZ(xl, al[l+1:], bj[l+1:])
				} else {
					axpyNZ(xl, al[:l], bj[:l])
				}
			}
			scal(alpha, bj)
			continue
		}
		// Row i of op(A) is column i of A: one dot per row.
		for i := 0; i < m; i++ {
			ai := col(a, i)
			d := diagAt(diag, ai, i)
			s := 0.0
			if uplo == Upper {
				s = dotNZ(s, ai[:i], x[:i])
				if d != 0 {
					s += float64(d * x[i])
				}
			} else {
				if d != 0 {
					s += float64(d * x[i])
				}
				s = dotNZ(s, ai[i+1:], x[i+1:])
			}
			bj[i] = alpha * s
		}
	}
}

// trmmRight builds column j of alpha·B·op(A) in y from the columns of B
// its triangle reaches. Columns are produced in the order that leaves
// those inputs unwritten: descending j when op(A) is upper (column j reads
// columns ≤ j), ascending when it is lower.
func trmmRight(uplo Uplo, ta Trans, diag Diag, alpha float64, a, b matrix.View, y []float64) {
	n := b.N
	// op(A)[l,j] is a.Data[l*sl + j*sj].
	sl, sj := 1, a.LD
	if ta != NoTrans {
		sl, sj = a.LD, 1
	}
	upperEff := (uplo == Upper) == (ta == NoTrans)
	for t := 0; t < n; t++ {
		j, lo, hi := n-1-t, 0, n-1-t
		if !upperEff {
			j, lo, hi = t, t+1, n
		}
		clear(y)
		d := diagAt(diag, col(a, j), j)
		if !upperEff && d != 0 {
			axpy(d, col(b, j), y)
		}
		for l := lo; l < hi; l++ {
			if v := a.Data[l*sl+j*sj]; v != 0 {
				axpy(v, col(b, l), y)
			}
		}
		if upperEff && d != 0 {
			axpy(d, col(b, j), y)
		}
		bj := col(b, j)
		for i, v := range y {
			bj[i] = alpha * v
		}
	}
}

// Trsm solves op(A)·X = alpha·B (side Left) or X·op(A) = alpha·B (side
// Right) for X, overwriting B with X. A is triangular (m×m for Left, n×n
// for Right). Each element starts as alpha·B, has the solved products
// subtracted in ascending contraction index, and is divided by the
// diagonal.
func Trsm(side Side, uplo Uplo, ta Trans, diag Diag, alpha float64, a, b matrix.View) {
	m, n := b.M, b.N
	checkTriangular(side, a, m, n, "trsm")
	// op(A) is effectively lower iff storage triangle and transpose agree.
	lowerEff := (uplo == Lower) == (ta == NoTrans)
	if side == Right {
		trsmRight(lowerEff, ta, diag, alpha, a, b)
		return
	}
	if ta == NoTrans && uplo == Lower {
		// Column sweep: once x[l] is solved, column l of A subtracts its
		// multiples from the rows below.
		for j := 0; j < n; j++ {
			bj := col(b, j)
			scal(alpha, bj)
			for l := 0; l < m; l++ {
				al := col(a, l)
				bj[l] /= diagAt(diag, al, l)
				axpySub(bj[l], al[l+1:], bj[l+1:])
			}
		}
		return
	}
	// Row i of op(A) is column i of p: A itself when transposed, else a
	// transposed copy of the upper A (its rows would be strided).
	p := a
	if ta == NoTrans {
		buf := getScratch(m * m)
		defer scratch.Put(buf)
		p = transposeInto(a, *buf)
	}
	for j := 0; j < n; j++ {
		bj := col(b, j)
		if lowerEff {
			for i := 0; i < m; i++ {
				pi := col(p, i)
				s := dotSub(alpha*bj[i], pi[:i], bj[:i])
				bj[i] = s / diagAt(diag, pi, i)
			}
			continue
		}
		for i := m - 1; i >= 0; i-- {
			pi := col(p, i)
			s := dotSub(alpha*bj[i], pi[i+1:], bj[i+1:])
			bj[i] = s / diagAt(diag, pi, i)
		}
	}
}

// trsmRight solves X·op(A) = alpha·B one column of X at a time: column j
// starts as alpha·B[:,j], loses X[:,l]·op(A)[l,j] for each solved l of its
// triangle in ascending order, and is divided by the diagonal. Columns are
// solved descending when op(A) is lower, ascending when upper.
func trsmRight(lowerEff bool, ta Trans, diag Diag, alpha float64, a, b matrix.View) {
	n := b.N
	// op(A)[l,j] is a.Data[l*sl + j*sj].
	sl, sj := 1, a.LD
	if ta != NoTrans {
		sl, sj = a.LD, 1
	}
	for t := 0; t < n; t++ {
		j, lo, hi := t, 0, t
		if lowerEff {
			j, lo, hi = n-1-t, n-t, n
		}
		bj := col(b, j)
		scal(alpha, bj)
		for l := lo; l < hi; l++ {
			axpySub(a.Data[l*sl+j*sj], col(b, l), bj)
		}
		d := diagAt(diag, col(a, j), j)
		for i := range bj {
			bj[i] /= d
		}
	}
}

func checkTriangular(side Side, a matrix.View, m, n int, op string) {
	if side == Left {
		if a.M != m || a.N != m {
			panic(fmt.Sprintf("hostblas: %s left A must be %dx%d, got %dx%d", op, m, m, a.M, a.N))
		}
		return
	}
	if a.M != n || a.N != n {
		panic(fmt.Sprintf("hostblas: %s right A must be %dx%d, got %dx%d", op, n, n, a.M, a.N))
	}
}

// Scal scales every element of the view by beta (the degenerate alpha = 0
// paths of the level-3 routines reduce to this); beta = 0 stores zeros.
func Scal(beta float64, v matrix.View) { scale(beta, v) }

// ScalTri scales the uplo triangle (with diagonal) of the square view v by
// beta, the alpha = 0 path of SYRK and SYR2K on a diagonal tile; beta = 0
// stores zeros whatever the triangle held.
func ScalTri(uplo Uplo, beta float64, v matrix.View) {
	for j := 0; j < v.N; j++ {
		lo, hi := triRange(uplo, j, v.M)
		scaleBeta(beta, col(v, j)[lo:hi])
	}
}

// SymmetrizeFrom builds the full symmetric matrix implied by the uplo
// triangle of src into dst.
func SymmetrizeFrom(uplo Uplo, src, dst matrix.View) {
	for j := 0; j < src.N; j++ {
		lo, hi := triRange(uplo, j, src.N)
		stored := col(src, j)[lo:hi]
		copy(col(dst, j)[lo:hi], stored)
		for i, x := range stored {
			dst.Data[(lo+i)*dst.LD+j] = x
		}
	}
}
