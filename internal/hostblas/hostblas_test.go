package hostblas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xkblas/internal/matrix"
)

const tol = 1e-9

// naiveMul computes C = A·B densely.
func naiveMul(a, b matrix.View) matrix.View {
	c := matrix.New(a.M, b.N)
	for j := 0; j < b.N; j++ {
		for i := 0; i < a.M; i++ {
			s := 0.0
			for l := 0; l < a.N; l++ {
				s += a.At(i, l) * b.At(l, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func densifyOp(t Trans, a matrix.View) matrix.View {
	if t == NoTrans {
		return a.Clone()
	}
	c := matrix.New(a.N, a.M)
	for j := 0; j < a.M; j++ {
		for i := 0; i < a.N; i++ {
			c.Set(i, j, a.At(j, i))
		}
	}
	return c
}

// densifyTri materializes a stored triangle into a dense matrix, honouring
// the diag convention.
func densifyTri(uplo Uplo, diag Diag, a matrix.View) matrix.View {
	n := a.N
	c := matrix.New(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			c.Set(i, j, triOpAt(uplo, NoTrans, diag, a, i, j))
		}
	}
	return c
}

func axpyScale(alpha float64, x matrix.View, beta float64, y matrix.View) matrix.View {
	c := matrix.New(y.M, y.N)
	for j := 0; j < y.N; j++ {
		for i := 0; i < y.M; i++ {
			c.Set(i, j, alpha*x.At(i, j)+beta*y.At(i, j))
		}
	}
	return c
}

func randView(rng *rand.Rand, m, n int) matrix.View {
	// Exercise non-trivial leading dimensions.
	ld := m + rng.Intn(3)
	v := matrix.FromSlice(make([]float64, ld*n+1), m, n, max(ld, 1))
	v.FillRandom(rng)
	return v
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestGemmAllTransCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, ta := range []Trans{NoTrans, Transpose} {
		for _, tb := range []Trans{NoTrans, Transpose} {
			m, n, k := 7, 5, 9
			var a, b matrix.View
			if ta == NoTrans {
				a = randView(rng, m, k)
			} else {
				a = randView(rng, k, m)
			}
			if tb == NoTrans {
				b = randView(rng, k, n)
			} else {
				b = randView(rng, n, k)
			}
			c := randView(rng, m, n)
			alpha, beta := 1.3, -0.7
			want := axpyScale(alpha, naiveMul(densifyOp(ta, a), densifyOp(tb, b)), beta, c)
			Gemm(ta, tb, alpha, a, b, beta, c)
			if d := matrix.MaxAbsDiff(c, want); d > tol {
				t.Errorf("gemm(%c,%c): max diff %g", ta, tb, d)
			}
		}
	}
}

// TestBetaZeroIgnoresC: with beta = 0, BLAS lets C be unset on entry, so
// every routine with a beta must overwrite C, not scale it: a NaN there
// must not survive. SYRK and SYR2K used to compute alpha·s + beta·C, which
// kept it.
func TestBetaZeroIgnoresC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 5
	a, b := randView(rng, n, n), randView(rng, n, n)
	sym := matrix.New(n, n)
	SymmetrizeFrom(Lower, a, sym)
	aat := naiveMul(a, densifyOp(Transpose, a))
	abt := axpyScale(1, naiveMul(a, densifyOp(Transpose, b)), 1, naiveMul(b, densifyOp(Transpose, a)))
	cases := []struct {
		name     string
		run      func(c matrix.View)
		want     matrix.View
		triangle bool // only the lower triangle is defined
	}{
		{"GEMM", func(c matrix.View) { Gemm(NoTrans, NoTrans, 1, a, b, 0, c) }, naiveMul(a, b), false},
		{"SYMM", func(c matrix.View) { Symm(Left, Lower, 1, a, b, 0, c) }, naiveMul(sym, b), false},
		{"SYRK", func(c matrix.View) { Syrk(Lower, NoTrans, 1, a, 0, c) }, aat, true},
		{"SYR2K", func(c matrix.View) { Syr2k(Lower, NoTrans, 1, a, b, 0, c) }, abt, true},
	}
	for _, tc := range cases {
		c := matrix.New(n, n)
		for i := range c.Data {
			c.Data[i] = math.NaN() // must be overwritten, not scaled
		}
		tc.run(c)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if tc.triangle && i < j {
					continue
				}
				if d := math.Abs(c.At(i, j) - tc.want.At(i, j)); !(d <= tol) {
					t.Errorf("%s beta=0: C[%d,%d] = %v, want %v", tc.name, i, j, c.At(i, j), tc.want.At(i, j))
				}
			}
		}
	}
}

func TestGemmAlphaZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randView(rng, 3, 3), randView(rng, 3, 3)
	c := randView(rng, 3, 3)
	want := axpyScale(0, c, 2, c)
	Gemm(NoTrans, NoTrans, 0, a, b, 2, c)
	if d := matrix.MaxAbsDiff(c, want); d > tol {
		t.Fatalf("alpha=0 diff %g", d)
	}
}

func TestSymmBothSidesBothUplos(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			m, n := 6, 4
			dim := m
			if side == Right {
				dim = n
			}
			a := randView(rng, dim, dim)
			b := randView(rng, m, n)
			c := randView(rng, m, n)
			alpha, beta := 0.9, 1.4
			sym := matrix.New(dim, dim)
			SymmetrizeFrom(uplo, a, sym)
			var prod matrix.View
			if side == Left {
				prod = naiveMul(sym, b)
			} else {
				prod = naiveMul(b, sym)
			}
			want := axpyScale(alpha, prod, beta, c)
			Symm(side, uplo, alpha, a, b, beta, c)
			if d := matrix.MaxAbsDiff(c, want); d > tol {
				t.Errorf("symm(%c,%c): diff %g", side, uplo, d)
			}
		}
	}
}

func TestSyrkTriangleOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, uplo := range []Uplo{Lower, Upper} {
		for _, trans := range []Trans{NoTrans, Transpose} {
			n, k := 6, 4
			var a matrix.View
			if trans == NoTrans {
				a = randView(rng, n, k)
			} else {
				a = randView(rng, k, n)
			}
			c := randView(rng, n, n)
			orig := c.Clone()
			alpha, beta := 1.1, 0.5
			oa := densifyOp(trans, a)
			full := axpyScale(alpha, naiveMul(oa, densifyOp(Transpose, oa)), beta, orig)
			Syrk(uplo, trans, alpha, a, beta, c)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					in := (uplo == Lower && i >= j) || (uplo == Upper && i <= j)
					if in {
						if d := c.At(i, j) - full.At(i, j); d > tol || d < -tol {
							t.Errorf("syrk(%c,%c) (%d,%d) diff %g", uplo, trans, i, j, d)
						}
					} else if c.At(i, j) != orig.At(i, j) {
						t.Errorf("syrk(%c,%c) touched (%d,%d) outside triangle", uplo, trans, i, j)
					}
				}
			}
		}
	}
}

func TestSyr2k(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, uplo := range []Uplo{Lower, Upper} {
		for _, trans := range []Trans{NoTrans, Transpose} {
			n, k := 5, 7
			var a, b matrix.View
			if trans == NoTrans {
				a, b = randView(rng, n, k), randView(rng, n, k)
			} else {
				a, b = randView(rng, k, n), randView(rng, k, n)
			}
			c := randView(rng, n, n)
			orig := c.Clone()
			alpha, beta := -0.8, 1.2
			oa, ob := densifyOp(trans, a), densifyOp(trans, b)
			abt := naiveMul(oa, densifyOp(Transpose, ob))
			bat := naiveMul(ob, densifyOp(Transpose, oa))
			full := axpyScale(alpha, axpyScale(1, abt, 1, bat), beta, orig)
			Syr2k(uplo, trans, alpha, a, b, beta, c)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					in := (uplo == Lower && i >= j) || (uplo == Upper && i <= j)
					if in {
						if d := c.At(i, j) - full.At(i, j); d > tol || d < -tol {
							t.Errorf("syr2k(%c,%c) (%d,%d) diff %g", uplo, trans, i, j, d)
						}
					} else if c.At(i, j) != orig.At(i, j) {
						t.Errorf("syr2k(%c,%c) touched outside triangle", uplo, trans)
					}
				}
			}
		}
	}
}

func TestTrmmAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, ta := range []Trans{NoTrans, Transpose} {
				for _, diag := range []Diag{NonUnit, Unit} {
					m, n := 5, 6
					dim := m
					if side == Right {
						dim = n
					}
					a := randView(rng, dim, dim)
					b := randView(rng, m, n)
					alpha := 1.5
					tri := densifyOp(ta, densifyTri(uplo, diag, a))
					var want matrix.View
					if side == Left {
						want = axpyScale(alpha, naiveMul(tri, b), 0, b)
					} else {
						want = axpyScale(alpha, naiveMul(b, tri), 0, b)
					}
					Trmm(side, uplo, ta, diag, alpha, a, b)
					if d := matrix.MaxAbsDiff(b, want); d > tol {
						t.Errorf("trmm(%c,%c,%c,%c): diff %g", side, uplo, ta, diag, d)
					}
				}
			}
		}
	}
}

func TestTrsmAllVariantsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, ta := range []Trans{NoTrans, Transpose} {
				for _, diag := range []Diag{NonUnit, Unit} {
					m, n := 6, 5
					dim := m
					if side == Right {
						dim = n
					}
					a := matrix.New(dim, dim)
					a.FillIdentityPlus(8, rng) // well-conditioned
					b := randView(rng, m, n)
					orig := b.Clone()
					alpha := 2.0
					Trsm(side, uplo, ta, diag, alpha, a, b)
					// Verify op(A)·X = alpha·B (or X·op(A) = alpha·B).
					x := b.Clone()
					Trmm(side, uplo, ta, diag, 1, a, x)
					want := axpyScale(alpha, orig, 0, orig)
					if d := matrix.MaxAbsDiff(x, want); d > 1e-8 {
						t.Errorf("trsm(%c,%c,%c,%c): residual %g", side, uplo, ta, diag, d)
					}
				}
			}
		}
	}
}

// Property: GEMM is bilinear in alpha.
func TestGemmLinearityProperty(t *testing.T) {
	f := func(seed int64, alphaRaw int8) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := float64(alphaRaw) / 16
		m, n, k := rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1
		a, b := randView(rng, m, k), randView(rng, k, n)
		c1 := matrix.New(m, n)
		c2 := matrix.New(m, n)
		Gemm(NoTrans, NoTrans, alpha, a, b, 0, c1)
		Gemm(NoTrans, NoTrans, 1, a, b, 0, c2)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				d := c1.At(i, j) - alpha*c2.At(i, j)
				if d > 1e-9 || d < -1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SYRK result is consistent between Lower and Upper storage (they
// describe the same symmetric matrix).
func TestSyrkLowerUpperConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k := rng.Intn(8)+1, rng.Intn(8)+1
		a := randView(rng, n, k)
		cl := matrix.New(n, n)
		cu := matrix.New(n, n)
		Syrk(Lower, NoTrans, 1, a, 0, cl)
		Syrk(Upper, NoTrans, 1, a, 0, cu)
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				d := cl.At(i, j) - cu.At(j, i)
				if d > 1e-9 || d < -1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: TRSM then TRMM with the same triangle round-trips to alpha·B for
// random shapes and flags.
func TestTrsmTrmmInverseProperty(t *testing.T) {
	f := func(seed int64, flags uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		side := Left
		if flags&1 != 0 {
			side = Right
		}
		uplo := Lower
		if flags&2 != 0 {
			uplo = Upper
		}
		ta := NoTrans
		if flags&4 != 0 {
			ta = Transpose
		}
		diag := NonUnit
		if flags&8 != 0 {
			diag = Unit
		}
		m, n := rng.Intn(7)+1, rng.Intn(7)+1
		dim := m
		if side == Right {
			dim = n
		}
		a := matrix.New(dim, dim)
		a.FillIdentityPlus(10, rng)
		b := randView(rng, m, n)
		orig := b.Clone()
		Trsm(side, uplo, ta, diag, 3, a, b)
		Trmm(side, uplo, ta, diag, 1, a, b)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				d := b.At(i, j) - 3*orig.At(i, j)
				if d > 1e-7 || d < -1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
