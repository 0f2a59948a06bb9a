package core

import (
	"math"
	"math/rand"
	"testing"

	"xkblas/internal/hostblas"
	"xkblas/internal/matrix"
)

// Error-path and degenerate-input coverage for the public algorithm layer.

func expectPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestShapeMismatchesPanic(t *testing.T) {
	h := NewHandle(Config{TileSize: 8})
	sq := h.Register(matrix.NewShape(16, 16))
	rect := h.Register(matrix.NewShape(16, 24))
	tall := h.Register(matrix.NewShape(24, 16))

	expectPanic(t, "gemm grid", func() {
		h.GemmAsync(NoTrans, NoTrans, 1, rect, rect, 1, sq)
	})
	expectPanic(t, "symm triangular", func() {
		h.SymmAsync(Left, Lower, 1, rect, sq, 1, sq)
	})
	expectPanic(t, "syrk square C", func() {
		h.SyrkAsync(Lower, NoTrans, 1, sq, 1, rect)
	})
	expectPanic(t, "syr2k rows", func() {
		h.Syr2kAsync(Lower, NoTrans, 1, tall, tall, 1, sq)
	})
	expectPanic(t, "trsm left grid", func() {
		h.TrsmAsync(Left, Lower, NoTrans, NonUnit, 1, rect, sq)
	})
	expectPanic(t, "trmm right grid", func() {
		h.TrmmAsync(Right, Lower, NoTrans, NonUnit, 1, tall, rect)
	})
	expectPanic(t, "zgemm grid", func() {
		a := h.RegisterZ(matrix.NewZShape(16, 24))
		c := h.RegisterZ(matrix.NewZShape(16, 16))
		h.ZgemmAsync(NoTrans, NoTrans, 1, a, a, 1, c)
	})
	expectPanic(t, "zherk square", func() {
		a := h.RegisterZ(matrix.NewZShape(16, 16))
		c := h.RegisterZ(matrix.NewZShape(16, 24))
		h.ZherkAsync(Lower, NoTrans, 1, a, 1, c)
	})
}

func TestSyrkAlphaZeroScalesTriangleOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	h := NewHandle(Config{TileSize: 8, Functional: true})
	n := 24
	av := matrix.New(n, n)
	av.FillRandom(rng)
	cv := matrix.New(n, n)
	cv.FillRandom(rng)
	want := cv.Clone()
	hostblas.Syrk(Lower, NoTrans, 0, av, 0.5, want)
	A, C := h.Register(av), h.Register(cv)
	h.SyrkAsync(Lower, NoTrans, 0, A, 0.5, C)
	h.MemoryCoherentAsync(C)
	h.Sync()
	if d := matrix.MaxAbsDiff(cv, want); d > 1e-12 {
		t.Fatalf("alpha=0 syrk diff %g", d)
	}
	// Strict upper untouched is implied by the reference comparison, but
	// assert explicitly: beta scaling must not leak above the diagonal.
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if cv.At(i, j) != want.At(i, j) {
				t.Fatal("upper triangle modified")
			}
		}
	}
}

// TestSyrkSyr2kBetaZeroIgnoresC: with beta = 0 the stored triangle of C is
// overwritten whatever it held, on the diagonal tiles (the SYRK/SYR2K tile
// kernels, or the triangle scaling when alpha = 0) as on the others. A
// NaN-filled C used to keep NaN in the diagonal tiles.
func TestSyrkSyr2kBetaZeroIgnoresC(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	const n, nb = 16, 4
	av, bv := randMat(rng, n, n), randMat(rng, n, n)
	for _, alpha := range []float64{1.3, 0} {
		for _, routine := range []string{"SYRK", "SYR2K"} {
			h := newFunctional(nb)
			want := matrix.New(n, n) // zeros: the reference never sees the NaNs
			cv := matrix.New(n, n)
			for i := range cv.Data {
				cv.Data[i] = math.NaN()
			}
			A, C := h.Register(av), h.Register(cv)
			if routine == "SYRK" {
				hostblas.Syrk(Lower, NoTrans, alpha, av, 0, want)
				h.SyrkAsync(Lower, NoTrans, alpha, A, 0, C)
			} else {
				hostblas.Syr2k(Lower, NoTrans, alpha, av, bv, 0, want)
				h.Syr2kAsync(Lower, NoTrans, alpha, A, h.Register(bv), 0, C)
			}
			h.MemoryCoherentAsync(C)
			h.Sync()
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					got := cv.At(i, j)
					if i < j {
						if !math.IsNaN(got) {
							t.Fatalf("%s alpha=%v: upper C[%d,%d] = %v was written", routine, alpha, i, j, got)
						}
						continue
					}
					if d := math.Abs(got - want.At(i, j)); !(d <= 1e-9) {
						t.Fatalf("%s alpha=%v beta=0: C[%d,%d] = %v, want %v", routine, alpha, i, j, got, want.At(i, j))
					}
				}
			}
		}
	}
}

func TestTrmmAlphaZeroZeroesB(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	h := NewHandle(Config{TileSize: 8, Functional: true})
	av := matrix.New(16, 16)
	av.FillRandom(rng)
	bv := matrix.New(16, 16)
	bv.FillRandom(rng)
	A, B := h.Register(av), h.Register(bv)
	h.TrmmAsync(Left, Lower, NoTrans, NonUnit, 0, A, B)
	h.MemoryCoherentAsync(B)
	h.Sync()
	for _, x := range bv.Data {
		if x != 0 {
			t.Fatal("alpha=0 TRMM must zero B")
		}
	}
}

func TestGemmAsyncRectangularKDominant(t *testing.T) {
	// Deep-k rectangular GEMM: C(8×12) = A(8×40)·B(40×12) with edge tiles
	// in every dimension.
	rng := rand.New(rand.NewSource(62))
	h := NewHandle(Config{TileSize: 8, Functional: true})
	m, n, k := 8, 12, 40
	av := matrix.New(m, k)
	bv := matrix.New(k, n)
	cv := matrix.New(m, n)
	av.FillRandom(rng)
	bv.FillRandom(rng)
	cv.FillRandom(rng)
	want := cv.Clone()
	hostblas.Gemm(NoTrans, NoTrans, 1, av, bv, 1, want)
	A, B, C := h.Register(av), h.Register(bv), h.Register(cv)
	h.GemmAsync(NoTrans, NoTrans, 1, A, B, 1, C)
	h.MemoryCoherentAsync(C)
	h.Sync()
	if d := matrix.MaxAbsDiff(cv, want); d > 1e-11 {
		t.Fatalf("deep-k gemm diff %g", d)
	}
}
