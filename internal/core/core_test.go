package core

import (
	"math/rand"
	"testing"

	"xkblas/internal/hostblas"
	"xkblas/internal/matrix"
	"xkblas/internal/policy"
	"xkblas/internal/xkrt"
)

const tol = 1e-10

// newFunctional returns a functional-mode handle on a DGX-1 with small
// tiles so multi-tile paths are exercised.
func newFunctional(nb int) *Handle {
	return NewHandle(Config{TileSize: nb, Functional: true})
}

func randMat(rng *rand.Rand, m, n int) matrix.View {
	v := matrix.New(m, n)
	v.FillRandom(rng)
	return v
}

// verify drives the handle to completion, flushes C and compares to want.
func verify(t *testing.T, h *Handle, c *xkrt.Matrix, cv, want matrix.View, label string) {
	t.Helper()
	h.MemoryCoherentAsync(c)
	h.Sync()
	if d := matrix.MaxAbsDiff(cv, want); d > tol {
		t.Errorf("%s: max diff %g", label, d)
	}
}

func TestGemmAsyncAllTransMultiTile(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Non-divisible dims force edge tiles.
	m, n, k, nb := 37, 29, 23, 8
	for _, ta := range []Trans{NoTrans, Transpose} {
		for _, tb := range []Trans{NoTrans, Transpose} {
			h := newFunctional(nb)
			av := randMat(rng, pick(ta == NoTrans, m, k), pick(ta == NoTrans, k, m))
			bv := randMat(rng, pick(tb == NoTrans, k, n), pick(tb == NoTrans, n, k))
			cv := randMat(rng, m, n)
			want := cv.Clone()
			hostblas.Gemm(ta, tb, 1.2, av, bv, -0.5, want)
			A, B, C := h.Register(av), h.Register(bv), h.Register(cv)
			h.GemmAsync(ta, tb, 1.2, A, B, -0.5, C)
			verify(t, h, C, cv, want, "gemm("+ta.String()+tb.String()+")")
		}
	}
}

func pick(cond bool, a, b int) int {
	if cond {
		return a
	}
	return b
}

func TestGemmAsyncAlphaZero(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := newFunctional(8)
	av, bv, cv := randMat(rng, 16, 16), randMat(rng, 16, 16), randMat(rng, 16, 16)
	want := cv.Clone()
	hostblas.Gemm(NoTrans, NoTrans, 0, av, bv, 0.25, want)
	A, B, C := h.Register(av), h.Register(bv), h.Register(cv)
	h.GemmAsync(NoTrans, NoTrans, 0, A, B, 0.25, C)
	verify(t, h, C, cv, want, "gemm alpha=0")
}

func TestSymmAsyncAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, n, nb := 27, 19, 8
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			h := newFunctional(nb)
			dim := pick(side == Left, m, n)
			av := randMat(rng, dim, dim)
			bv := randMat(rng, m, n)
			cv := randMat(rng, m, n)
			want := cv.Clone()
			hostblas.Symm(side, uplo, 0.7, av, bv, 1.1, want)
			A, B, C := h.Register(av), h.Register(bv), h.Register(cv)
			h.SymmAsync(side, uplo, 0.7, A, B, 1.1, C)
			verify(t, h, C, cv, want, "symm("+side.String()+uplo.String()+")")
		}
	}
}

func TestSyrkAsyncAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n, k, nb := 25, 17, 8
	for _, uplo := range []Uplo{Lower, Upper} {
		for _, trans := range []Trans{NoTrans, Transpose} {
			h := newFunctional(nb)
			av := randMat(rng, pick(trans == NoTrans, n, k), pick(trans == NoTrans, k, n))
			cv := randMat(rng, n, n)
			want := cv.Clone()
			hostblas.Syrk(uplo, trans, -0.6, av, 0.9, want)
			A, C := h.Register(av), h.Register(cv)
			h.SyrkAsync(uplo, trans, -0.6, A, 0.9, C)
			verify(t, h, C, cv, want, "syrk("+uplo.String()+trans.String()+")")
		}
	}
}

func TestSyr2kAsyncAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n, k, nb := 21, 26, 8
	for _, uplo := range []Uplo{Lower, Upper} {
		for _, trans := range []Trans{NoTrans, Transpose} {
			h := newFunctional(nb)
			av := randMat(rng, pick(trans == NoTrans, n, k), pick(trans == NoTrans, k, n))
			bv := randMat(rng, pick(trans == NoTrans, n, k), pick(trans == NoTrans, k, n))
			cv := randMat(rng, n, n)
			want := cv.Clone()
			hostblas.Syr2k(uplo, trans, 1.4, av, bv, -0.8, want)
			A, B, C := h.Register(av), h.Register(bv), h.Register(cv)
			h.Syr2kAsync(uplo, trans, 1.4, A, B, -0.8, C)
			verify(t, h, C, cv, want, "syr2k("+uplo.String()+trans.String()+")")
		}
	}
}

func TestTrmmAsyncAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m, n, nb := 26, 18, 8
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, ta := range []Trans{NoTrans, Transpose} {
				for _, diag := range []Diag{NonUnit, Unit} {
					h := newFunctional(nb)
					dim := pick(side == Left, m, n)
					av := randMat(rng, dim, dim)
					bv := randMat(rng, m, n)
					want := bv.Clone()
					hostblas.Trmm(side, uplo, ta, diag, 1.3, av, want)
					A, B := h.Register(av), h.Register(bv)
					h.TrmmAsync(side, uplo, ta, diag, 1.3, A, B)
					verify(t, h, B, bv, want,
						"trmm("+side.String()+uplo.String()+ta.String()+diag.String()+")")
				}
			}
		}
	}
}

func TestTrsmAsyncAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m, n, nb := 26, 18, 8
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, ta := range []Trans{NoTrans, Transpose} {
				for _, diag := range []Diag{NonUnit, Unit} {
					h := newFunctional(nb)
					dim := pick(side == Left, m, n)
					av := matrix.New(dim, dim)
					av.FillIdentityPlus(float64(dim)+4, rng)
					bv := randMat(rng, m, n)
					want := bv.Clone()
					hostblas.Trsm(side, uplo, ta, diag, 2.1, av, want)
					A, B := h.Register(av), h.Register(bv)
					h.TrsmAsync(side, uplo, ta, diag, 2.1, A, B)
					h.MemoryCoherentAsync(B)
					h.Sync()
					if d := matrix.MaxAbsDiff(bv, want); d > 1e-8 {
						t.Errorf("trsm(%s%s%s%s): max diff %g",
							side.String(), uplo.String(), ta.String(), diag.String(), d)
					}
				}
			}
		}
	}
}

func TestCompositionTrsmGemmNoIntermediateSync(t *testing.T) {
	// §IV-F: a TRSM followed by a GEMM reading TRSM's output composes
	// without host round-trips; one coherency point at the end suffices.
	rng := rand.New(rand.NewSource(17))
	n, nb := 24, 8
	h := newFunctional(nb)
	lv := matrix.New(n, n)
	lv.FillIdentityPlus(float64(n)+4, rng)
	bv := randMat(rng, n, n)
	cv := randMat(rng, n, n)
	dv := randMat(rng, n, n)

	wantB := bv.Clone()
	hostblas.Trsm(Left, Lower, NoTrans, NonUnit, 1, lv, wantB)
	wantD := dv.Clone()
	hostblas.Gemm(NoTrans, NoTrans, 1, wantB, cv, 1, wantD)

	L, B, C, D := h.Register(lv), h.Register(bv), h.Register(cv), h.Register(dv)
	h.TrsmAsync(Left, Lower, NoTrans, NonUnit, 1, L, B)
	h.GemmAsync(NoTrans, NoTrans, 1, B, C, 1, D)
	h.MemoryCoherentAsync(B)
	h.MemoryCoherentAsync(D)
	h.Sync()
	if d := matrix.MaxAbsDiff(bv, wantB); d > 1e-8 {
		t.Errorf("composition TRSM output: diff %g", d)
	}
	if d := matrix.MaxAbsDiff(dv, wantD); d > 1e-7 {
		t.Errorf("composition GEMM output: diff %g", d)
	}
	// Host traffic check: B's tiles must not have bounced through the host
	// between the two calls — D2H count equals exactly one flush per tile
	// of B and D.
	st := h.RT.Cache.Stats()
	wantFlushes := int64(B.Rows()*B.Cols() + D.Rows()*D.Cols())
	if st.D2HCount != wantFlushes {
		t.Errorf("D2H transfers = %d, want %d (lazy coherency only)", st.D2HCount, wantFlushes)
	}
}

func TestDataOnDeviceDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	n, nb := 32, 8
	h := newFunctional(nb)
	av, bv, cv := randMat(rng, n, n), randMat(rng, n, n), randMat(rng, n, n)
	want := cv.Clone()
	hostblas.Gemm(NoTrans, NoTrans, 1, av, bv, 1, want)
	A, B, C := h.Register(av), h.Register(bv), h.Register(cv)
	for _, m := range []*xkrt.Matrix{A, B, C} {
		h.Distribute2DBlockCyclicAsync(m, 4, 2)
	}
	h.Sync() // distribution done; measurement would start here (§IV-C)
	h.GemmAsync(NoTrans, NoTrans, 1, A, B, 1, C)
	h.MemoryCoherentAsync(C)
	h.Sync()
	if d := matrix.MaxAbsDiff(cv, want); d > tol {
		t.Fatalf("DoD gemm diff %g", d)
	}
}

func TestHandleDefaults(t *testing.T) {
	h := NewHandle(Config{})
	if h.NB != 2048 {
		t.Errorf("default NB = %d, want 2048", h.NB)
	}
	if len(h.Plat.GPUs) != 8 {
		t.Errorf("default platform GPUs = %d, want 8 (DGX-1)", len(h.Plat.GPUs))
	}
	if *h.RT.Opt.Policy != policy.XKBlas {
		t.Error("default options must enable both heuristics")
	}
}

func TestVirtualTimeAdvancesWithWork(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	h := newFunctional(8)
	av, bv, cv := randMat(rng, 32, 32), randMat(rng, 32, 32), randMat(rng, 32, 32)
	A, B, C := h.Register(av), h.Register(bv), h.Register(cv)
	t0 := h.Now()
	h.GemmAsync(NoTrans, NoTrans, 1, A, B, 1, C)
	h.MemoryCoherentAsync(C)
	end := h.Sync()
	if end <= t0 {
		t.Fatal("virtual clock did not advance")
	}
}
