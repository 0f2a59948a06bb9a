package hostblas

import (
	"xkblas/internal/matrix"
)

// The six level-3 kernels in their original element-at-a-time form: every
// element is read through View.At and a per-element flag switch. They are
// the oracle the production kernels must match bit for bit
// (TestKernelsMatchReferenceBitExact), so they change only when the
// per-element operation order of the contract changes. Two edits were made
// to the loops as first written: SYRK and SYR2K overwrite C when beta = 0,
// and every product that feeds an addition is written float64(x*y), which
// stops any target from fusing the pair into one multiply-add.

// opAt reads element (i,j) of op(A).
func opAt(t Trans, a matrix.View, i, j int) float64 {
	if t == NoTrans {
		return a.At(i, j)
	}
	return a.At(j, i)
}

// symAt reads element (i,j) of a symmetric matrix stored in one triangle.
func symAt(uplo Uplo, a matrix.View, i, j int) float64 {
	if uplo == Lower {
		if i >= j {
			return a.At(i, j)
		}
		return a.At(j, i)
	}
	if i <= j {
		return a.At(i, j)
	}
	return a.At(j, i)
}

// triOpAt reads element (i,j) of op(A) where A is triangular with the given
// stored triangle and diagonal convention; elements outside the triangle of
// op(A) read as zero.
func triOpAt(uplo Uplo, ta Trans, diag Diag, a matrix.View, i, j int) float64 {
	ii, jj := i, j
	if ta == Transpose {
		ii, jj = j, i
	}
	if ii == jj {
		if diag == Unit {
			return 1
		}
		return a.At(ii, ii)
	}
	if uplo == Lower {
		if ii > jj {
			return a.At(ii, jj)
		}
		return 0
	}
	if ii < jj {
		return a.At(ii, jj)
	}
	return 0
}

func refScale(beta float64, c matrix.View) {
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

func refGemm(ta, tb Trans, alpha float64, a, b matrix.View, beta float64, c matrix.View) {
	m, n := c.M, c.N
	k := a.N
	if ta != NoTrans {
		k = a.M
	}
	refScale(beta, c)
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
				c.Add(i, j, float64(opAt(ta, a, i, l)*blj))
			}
		}
	}
}

func refSymm(side Side, uplo Uplo, alpha float64, a, b matrix.View, beta float64, c matrix.View) {
	m, n := c.M, c.N
	refScale(beta, c)
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
					c.Add(i, j, float64(symAt(uplo, a, i, l)*blj))
				}
			}
		}
		return
	}
	for j := 0; j < n; j++ {
		for l := 0; l < n; l++ {
			alj := alpha * symAt(uplo, a, l, j)
			if alj == 0 {
				continue
			}
			for i := 0; i < m; i++ {
				c.Add(i, j, float64(b.At(i, l)*alj))
			}
		}
	}
}

// refRankUpdate is the oracle's final step of SYRK and SYR2K.
func refRankUpdate(alpha, s, beta, c float64) float64 {
	if beta == 0 {
		return alpha * s
	}
	return float64(alpha*s) + float64(beta*c)
}

func refSyrk(uplo Uplo, trans Trans, alpha float64, a matrix.View, beta float64, c matrix.View) {
	n := c.N
	k := a.N
	if trans != NoTrans {
		k = a.M
	}
	for j := 0; j < n; j++ {
		lo, hi := triRange(uplo, j, n)
		for i := lo; i < hi; i++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += float64(opAt(trans, a, i, l) * opAt(trans, a, j, l))
			}
			c.Set(i, j, refRankUpdate(alpha, s, beta, c.At(i, j)))
		}
	}
}

func refSyr2k(uplo Uplo, trans Trans, alpha float64, a, b matrix.View, beta float64, c matrix.View) {
	n := c.N
	k := a.N
	if trans != NoTrans {
		k = a.M
	}
	for j := 0; j < n; j++ {
		lo, hi := triRange(uplo, j, n)
		for i := lo; i < hi; i++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += float64(opAt(trans, a, i, l)*opAt(trans, b, j, l)) +
					float64(opAt(trans, b, i, l)*opAt(trans, a, j, l))
			}
			c.Set(i, j, refRankUpdate(alpha, s, beta, c.At(i, j)))
		}
	}
}

func refTrmm(side Side, uplo Uplo, ta Trans, diag Diag, alpha float64, a, b matrix.View) {
	m, n := b.M, b.N
	if side == Left {
		col := make([]float64, m)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				col[i] = b.At(i, j)
			}
			for i := 0; i < m; i++ {
				s := 0.0
				for l := 0; l < m; l++ {
					if v := triOpAt(uplo, ta, diag, a, i, l); v != 0 {
						s += float64(v * col[l])
					}
				}
				b.Set(i, j, alpha*s)
			}
		}
		return
	}
	row := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			row[j] = b.At(i, j)
		}
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < n; l++ {
				if v := triOpAt(uplo, ta, diag, a, l, j); v != 0 {
					s += float64(row[l] * v)
				}
			}
			b.Set(i, j, alpha*s)
		}
	}
}

func refTrsm(side Side, uplo Uplo, ta Trans, diag Diag, alpha float64, a, b matrix.View) {
	m, n := b.M, b.N
	if side == Left {
		// op(A) is effectively lower iff storage triangle and transpose
		// agree.
		lowerEff := (uplo == Lower) == (ta == NoTrans)
		for j := 0; j < n; j++ {
			if lowerEff {
				for i := 0; i < m; i++ {
					s := alpha * b.At(i, j)
					for l := 0; l < i; l++ {
						s -= float64(triOpAt(uplo, ta, diag, a, i, l) * b.At(l, j))
					}
					b.Set(i, j, s/triOpAt(uplo, ta, diag, a, i, i))
				}
			} else {
				for i := m - 1; i >= 0; i-- {
					s := alpha * b.At(i, j)
					for l := i + 1; l < m; l++ {
						s -= float64(triOpAt(uplo, ta, diag, a, i, l) * b.At(l, j))
					}
					b.Set(i, j, s/triOpAt(uplo, ta, diag, a, i, i))
				}
			}
		}
		return
	}
	// Side Right: row i of X satisfies Σ_l X[i,l]·op(A)[l,j] = alpha·B[i,j].
	lowerEff := (uplo == Lower) == (ta == NoTrans)
	for i := 0; i < m; i++ {
		if lowerEff {
			// op(A) lower: column j depends on X[i,l] for l ≥ j → solve
			// decreasing j.
			for j := n - 1; j >= 0; j-- {
				s := alpha * b.At(i, j)
				for l := j + 1; l < n; l++ {
					s -= float64(b.At(i, l) * triOpAt(uplo, ta, diag, a, l, j))
				}
				b.Set(i, j, s/triOpAt(uplo, ta, diag, a, j, j))
			}
		} else {
			for j := 0; j < n; j++ {
				s := alpha * b.At(i, j)
				for l := 0; l < j; l++ {
					s -= float64(b.At(i, l) * triOpAt(uplo, ta, diag, a, l, j))
				}
				b.Set(i, j, s/triOpAt(uplo, ta, diag, a, j, j))
			}
		}
	}
}
