package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"xkblas/internal/hostblas"
	"xkblas/internal/matrix"
	"xkblas/internal/xkrt"
	"xkblas/internal/zblas"
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

	// HERK also zeroes the diagonal's imaginary parts.
	az, cz := randZMat(rng, n, n), randZMat(rng, n, n)
	wantZ := cz.Clone()
	zblas.Herk(Lower, NoTrans, 0, az, 0.5, wantZ)
	A, C = h.RegisterZ(az), h.RegisterZ(cz)
	h.ZherkAsync(Lower, NoTrans, 0, A, 0.5, C)
	h.MemoryCoherentAsync(C)
	h.Sync()
	if d := matrix.MaxAbsDiffZ(cz, wantZ); d > 1e-12 {
		t.Fatalf("alpha=0 herk diff %g", d)
	}
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if cz.At(i, j) != wantZ.At(i, j) {
				t.Fatal("herk: upper triangle modified")
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
	az, bz := randZMat(rng, n, n), randZMat(rng, n, n)
	for _, alpha := range []float64{1.3, 0} {
		for _, routine := range []string{"SYRK", "SYR2K", "HERK", "HER2K"} {
			h := newFunctional(nb)
			// want holds zeros before the reference runs: it never sees
			// the NaNs. cv and want view the real and imaginary parts of
			// a complex C as float64 rows.
			var cv, want matrix.View
			switch routine {
			case "SYRK", "SYR2K":
				cv, want = matrix.New(n, n), matrix.New(n, n)
			default:
				cv, want = matrix.NewZ(n, n).V, matrix.NewZ(n, n).V
			}
			for i := range cv.Data {
				cv.Data[i] = math.NaN()
			}
			var c *xkrt.Matrix
			switch routine {
			case "SYRK":
				hostblas.Syrk(Lower, NoTrans, alpha, av, 0, want)
				c = h.Register(cv)
				h.SyrkAsync(Lower, NoTrans, alpha, h.Register(av), 0, c)
			case "SYR2K":
				hostblas.Syr2k(Lower, NoTrans, alpha, av, bv, 0, want)
				c = h.Register(cv)
				h.Syr2kAsync(Lower, NoTrans, alpha, h.Register(av), h.Register(bv), 0, c)
			case "HERK":
				zblas.Herk(Lower, NoTrans, alpha, az, 0, matrix.ZFromView(want))
				c = h.RegisterZ(matrix.ZFromView(cv))
				h.ZherkAsync(Lower, NoTrans, alpha, h.RegisterZ(az), 0, c)
			case "HER2K":
				za := complex(alpha, -0.4*alpha)
				zblas.Her2k(Lower, NoTrans, za, az, bz, 0, matrix.ZFromView(want))
				c = h.RegisterZ(matrix.ZFromView(cv))
				h.Zher2kAsync(Lower, NoTrans, za, h.RegisterZ(az), h.RegisterZ(bz), 0, c)
			}
			h.MemoryCoherentAsync(c)
			h.Sync()
			for j := 0; j < n; j++ {
				for i := 0; i < cv.M; i++ {
					got := cv.At(i, j)
					if row := i * n / cv.M; row < j {
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

	az, bz := randZMat(rng, 16, 16), randZMat(rng, 16, 16)
	wantZ := bz.Clone()
	zblas.Trmm(Left, Lower, ConjTrans, NonUnit, 0, az, wantZ)
	A, B = h.RegisterZ(az), h.RegisterZ(bz)
	h.ZtrmmAsync(Left, Lower, ConjTrans, NonUnit, 0, A, B)
	h.MemoryCoherentAsync(B)
	h.Sync()
	verifyZ(t, bz, wantZ, "ztrmm alpha=0")
	for _, x := range bz.V.Data {
		if x != 0 {
			t.Fatal("alpha=0 ZTRMM must zero B")
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

// TestCancelledRunStopsGeneration: a tile loop on a cancelled runtime
// stops after its first output tile (or, for TRSM, its first panel)
// instead of building the whole DAG, and the drain reports the
// cancellation. Without a stream window Submit never enters the engine,
// so the loop's own poll is what sees the stopped run.
func TestCancelledRunStopsGeneration(t *testing.T) {
	const n, nb = 2048, 256 // 8×8 tiles
	sq := func(h *Handle) *xkrt.Matrix { return h.Register(matrix.NewShape(n, n)) }
	zq := func(h *Handle) *xkrt.Matrix { return h.RegisterZ(matrix.NewZShape(n, n)) }
	cases := []struct {
		name  string
		bound int // tasks in one output tile or one panel
		run   func(h *Handle)
	}{
		{"GEMM", 8, func(h *Handle) { h.GemmAsync(NoTrans, Transpose, 1, sq(h), sq(h), 1, sq(h)) }},
		{"SYMM", 8, func(h *Handle) { h.SymmAsync(Right, Upper, 1, sq(h), sq(h), 1, sq(h)) }},
		{"SYRK", 8, func(h *Handle) { h.SyrkAsync(Lower, Transpose, 1, sq(h), 1, sq(h)) }},
		{"SYR2K", 16, func(h *Handle) { h.Syr2kAsync(Upper, NoTrans, 1, sq(h), sq(h), 1, sq(h)) }},
		{"TRMM", 8, func(h *Handle) { h.TrmmAsync(Left, Lower, Transpose, Unit, 1, sq(h), sq(h)) }},
		{"TRSM", 64, func(h *Handle) { h.TrsmAsync(Right, Upper, NoTrans, NonUnit, 1, sq(h), sq(h)) }},
		{"ZGEMM", 8, func(h *Handle) { h.ZgemmAsync(ConjTrans, NoTrans, 1, zq(h), zq(h), 1, zq(h)) }},
		{"HEMM", 8, func(h *Handle) { h.ZhemmAsync(Left, Lower, 1, zq(h), zq(h), 1, zq(h)) }},
		{"HERK", 8, func(h *Handle) { h.ZherkAsync(Upper, ConjTrans, 1, zq(h), 1, zq(h)) }},
		{"HER2K", 16, func(h *Handle) { h.Zher2kAsync(Lower, NoTrans, 1i, zq(h), zq(h), 1, zq(h)) }},
		{"ZTRMM", 8, func(h *Handle) { h.ZtrmmAsync(Right, Upper, ConjTrans, NonUnit, 1, zq(h), zq(h)) }},
		{"ZTRSM", 64, func(h *Handle) { h.ZtrsmAsync(Left, Lower, ConjTrans, Unit, 1, zq(h), zq(h)) }},
	}
	for _, tc := range cases {
		h := NewHandle(Config{TileSize: nb})
		h.RT.Cancel(nil)
		tc.run(h)
		if p := h.RT.Pending(); p < 1 || p > tc.bound {
			t.Errorf("%s: %d tasks pending after a cancelled call, want 1..%d", tc.name, p, tc.bound)
		}
		h.Sync()
		if err := h.RT.Err(); !errors.Is(err, xkrt.ErrCanceled) {
			t.Errorf("%s: Sync left error %v, want xkrt.ErrCanceled", tc.name, err)
		}
	}
}
