package core

import (
	"math"
	"math/rand"
	"testing"

	"xkblas/internal/matrix"
	"xkblas/internal/policy"
	"xkblas/internal/xkrt"
)

// spdMatrix builds A = M·Mᵀ + n·I, symmetric positive definite.
func spdMatrix(rng *rand.Rand, n int) matrix.View {
	m := matrix.New(n, n)
	m.FillRandom(rng)
	a := matrix.New(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += m.At(i, k) * m.At(j, k)
			}
			if i == j {
				s += float64(n)
			}
			a.Set(i, j, s)
		}
	}
	return a
}

// choleskyResidual reconstructs the factored triangle and reports
// max |LLᵀ - A| (or |UᵀU - A|).
func choleskyResidual(uplo Uplo, factored, orig matrix.View) float64 {
	n := orig.N
	maxDiff := 0.0
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			inTri := (uplo == Lower && i >= j) || (uplo == Upper && i <= j)
			if !inTri {
				continue
			}
			s := 0.0
			for k := 0; k < n; k++ {
				var l, r float64
				if uplo == Lower {
					if k <= i {
						l = factored.At(i, k)
					}
					if k <= j {
						r = factored.At(j, k)
					}
				} else {
					if k <= i {
						l = factored.At(k, i)
					}
					if k <= j {
						r = factored.At(k, j)
					}
				}
				s += l * r
			}
			if d := math.Abs(s - orig.At(i, j)); d > maxDiff {
				maxDiff = d
			}
		}
	}
	return maxDiff
}

func TestPotrfAsyncBothTriangles(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, uplo := range []Uplo{Lower, Upper} {
		for _, cfg := range []xkrt.Options{
			{Window: 4, Policy: &policy.XKBlas},
			{Window: 2, Policy: &policy.XKBlasDMDAS},
		} {
			h := NewHandle(Config{TileSize: 8, Functional: true, Options: cfg})
			n := 40
			av := spdMatrix(rng, n)
			orig := av.Clone()
			A := h.Register(av)
			h.PotrfAsync(uplo, A)
			h.MemoryCoherentAsync(A)
			h.Sync()
			if d := choleskyResidual(uplo, av, orig); d > 1e-8 {
				t.Errorf("potrf(%s) scheduler=%s: residual %g", uplo.String(), cfg.Policy.Scheduler.Name(), d)
			}
		}
	}
}

func TestGetrfNoPivAsync(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	h := NewHandle(Config{TileSize: 8, Functional: true})
	n := 48
	av := matrix.New(n, n)
	av.FillIdentityPlus(float64(n)+8, rng)
	orig := av.Clone()
	A := h.Register(av)
	h.GetrfNoPivAsync(A)
	h.MemoryCoherentAsync(A)
	h.Sync()
	// Reconstruct L·U.
	maxDiff := 0.0
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			s := 0.0
			for k := 0; k < n; k++ {
				var l, u float64
				switch {
				case k < i:
					l = av.At(i, k)
				case k == i:
					l = 1
				}
				if k <= j {
					u = av.At(k, j)
				}
				s += l * u
			}
			if d := math.Abs(s - orig.At(i, j)); d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff > 1e-8 {
		t.Fatalf("getrf residual %g", maxDiff)
	}
}

func TestPotrfThenTrsmSolve(t *testing.T) {
	// End-to-end SPD solve: factor, then two triangular solves — all
	// composed asynchronously with a single coherency point.
	rng := rand.New(rand.NewSource(42))
	h := NewHandle(Config{TileSize: 8, Functional: true})
	n, nrhs := 32, 16
	av := spdMatrix(rng, n)
	bv := matrix.New(n, nrhs)
	bv.FillRandom(rng)
	borig := bv.Clone()

	aorig := av.Clone()
	A, B := h.Register(av), h.Register(bv)
	h.PotrfAsync(Lower, A)
	h.TrsmAsync(Left, Lower, NoTrans, NonUnit, 1, A, B)   // L·y = b
	h.TrsmAsync(Left, Lower, Transpose, NonUnit, 1, A, B) // Lᵀ·x = y
	// Only the solution is made coherent: the factor stays on the GPUs
	// (lazy coherency). The host copy of A therefore still holds the
	// ORIGINAL matrix, which is exactly what the residual check needs.
	h.MemoryCoherentAsync(B)
	h.Sync()

	maxDiff := 0.0
	for j := 0; j < nrhs; j++ {
		for i := 0; i < n; i++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += aorig.At(i, k) * bv.At(k, j)
			}
			if d := math.Abs(s - borig.At(i, j)); d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff > 1e-7 {
		t.Fatalf("solve residual %g", maxDiff)
	}
}

func TestPotrfFailsOnIndefinite(t *testing.T) {
	h := NewHandle(Config{TileSize: 8, Functional: true})
	n := 16
	av := matrix.New(n, n) // all zeros: not positive definite
	A := h.Register(av)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for indefinite input")
		}
	}()
	h.PotrfAsync(Lower, A)
	h.Sync()
}

func TestFactorizationsPipelineAcrossPanels(t *testing.T) {
	// With the factorization fully task-based, its makespan must beat a
	// per-panel-synchronized execution of the same tasks.
	run := func(panelSync bool) float64 {
		h := NewHandle(Config{TileSize: 1024})
		n := 16384
		A := h.Register(matrix.NewShape(n, n))
		t0 := h.Now()
		if !panelSync {
			h.PotrfAsync(Lower, A)
		} else {
			nt := A.Rows()
			for k := 0; k < nt; k++ {
				h.potf2Task(Lower, A.Tile(k, k), 0)
				for i := k + 1; i < nt; i++ {
					trsmTask[float64](h, Right, Lower, Transpose, NonUnit, 1, A.Tile(k, k), A.Tile(i, k), 0)
				}
				for i := k + 1; i < nt; i++ {
					syrkTask[float64](h, Lower, NoTrans, -1, A.Tile(i, k), 1, A.Tile(i, i), 0)
					for j := k + 1; j < i; j++ {
						gemmTask[float64](h, NoTrans, Transpose, -1, A.Tile(i, k), A.Tile(j, k), 1, A.Tile(i, j), 0)
					}
				}
				h.Sync() // artificial fork-join barrier per panel
			}
		}
		h.MemoryCoherentAsync(A)
		return float64(h.Sync() - t0)
	}
	async := run(false)
	forkJoin := run(true)
	if async >= forkJoin {
		t.Fatalf("asynchronous POTRF (%.3fs) should beat per-panel sync (%.3fs)", async, forkJoin)
	}
}
