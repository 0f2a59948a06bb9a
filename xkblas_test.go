package xkblas_test

import (
	"math"
	"math/rand"
	"testing"

	"xkblas"
)

func fill(rng *rand.Rand, xs []float64) {
	for i := range xs {
		xs[i] = 2*rng.Float64() - 1
	}
}

// naive C = alpha·op(A)op(B) + beta·C on column-major slices.
func naiveGemm(ta, tb xkblas.Trans, m, n, k int, alpha float64, a []float64, lda int,
	b []float64, ldb int, beta float64, c []float64, ldc int) {
	at := func(i, l int) float64 {
		if ta == xkblas.NoTrans {
			return a[l*lda+i]
		}
		return a[i*lda+l]
	}
	bt := func(l, j int) float64 {
		if tb == xkblas.NoTrans {
			return b[j*ldb+l]
		}
		return b[l*ldb+j]
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += at(i, l) * bt(l, j)
			}
			c[j*ldc+i] = alpha*s + beta*c[j*ldc+i]
		}
	}
}

func TestPublicAsyncAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 48
	h := xkblas.New(xkblas.Config{TileSize: 16, Functional: true})
	av, bv, cv := xkblas.NewMatrix(n, n), xkblas.NewMatrix(n, n), xkblas.NewMatrix(n, n)
	fill(rng, av.Data)
	fill(rng, bv.Data)
	fill(rng, cv.Data)
	want := append([]float64{}, cv.Data...)
	naiveGemm(xkblas.NoTrans, xkblas.NoTrans, n, n, n, 1, av.Data, n, bv.Data, n, 1, want, n)

	A, B, C := h.Register(av), h.Register(bv), h.Register(cv)
	h.GemmAsync(xkblas.NoTrans, xkblas.NoTrans, 1, A, B, 1, C)
	h.MemoryCoherentAsync(C)
	elapsed := h.Sync()
	if elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	for i := range want {
		if math.Abs(cv.Data[i]-want[i]) > 1e-10 {
			t.Fatalf("mismatch at %d: %g vs %g", i, cv.Data[i], want[i])
		}
	}
}

func TestDropInDgemm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, n, k := 33, 21, 27
	lda, ldb, ldc := m+2, k+1, m
	a := make([]float64, lda*k)
	b := make([]float64, ldb*n)
	c := make([]float64, ldc*n)
	fill(rng, a)
	fill(rng, b)
	fill(rng, c)
	want := append([]float64{}, c...)
	naiveGemm(xkblas.NoTrans, xkblas.NoTrans, m, n, k, 0.5, a, lda, b, ldb, 2, want, ldc)

	lib := &xkblas.DropIn{TileSize: 8}
	el := lib.Dgemm(xkblas.NoTrans, xkblas.NoTrans, m, n, k, 0.5, a, lda, b, ldb, 2, c, ldc)
	if el <= 0 {
		t.Fatal("no virtual time reported")
	}
	for i := range want {
		if math.Abs(c[i]-want[i]) > 1e-10 {
			t.Fatalf("mismatch at %d: %g vs %g", i, c[i], want[i])
		}
	}
}

func TestDropInDtrsmRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n := 24, 17
	a := make([]float64, m*m)
	b := make([]float64, m*n)
	fill(rng, a)
	for i := 0; i < m; i++ {
		a[i*m+i] += float64(m) + 4 // diagonal dominance
	}
	fill(rng, b)
	orig := append([]float64{}, b...)

	lib := &xkblas.DropIn{TileSize: 8}
	lib.Dtrsm(xkblas.Left, xkblas.Lower, xkblas.NoTrans, xkblas.NonUnit, m, n, 3, a, m, b, m)
	lib.Dtrmm(xkblas.Left, xkblas.Lower, xkblas.NoTrans, xkblas.NonUnit, m, n, 1, a, m, b, m)
	for i := range b {
		if math.Abs(b[i]-3*orig[i]) > 1e-7 {
			t.Fatalf("trsm/trmm round-trip failed at %d: %g vs %g", i, b[i], 3*orig[i])
		}
	}
}

func TestDropInSymmetricRoutines(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, k := 19, 23
	a := make([]float64, n*k)
	b := make([]float64, n*k)
	c := make([]float64, n*n)
	fill(rng, a)
	fill(rng, b)
	fill(rng, c)
	cRef := append([]float64{}, c...)

	lib := &xkblas.DropIn{TileSize: 8}
	lib.Dsyr2k(xkblas.Lower, xkblas.NoTrans, n, k, 1.5, a, n, b, n, 0.5, c, n)

	// Reference: full product then compare stored triangle.
	abt := make([]float64, n*n)
	naiveGemm(xkblas.NoTrans, xkblas.Transpose, n, n, k, 1, a, n, b, n, 0, abt, n)
	bat := make([]float64, n*n)
	naiveGemm(xkblas.NoTrans, xkblas.Transpose, n, n, k, 1, b, n, a, n, 0, bat, n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			want := 1.5*(abt[j*n+i]+bat[j*n+i]) + 0.5*cRef[j*n+i]
			if math.Abs(c[j*n+i]-want) > 1e-9 {
				t.Fatalf("syr2k mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestPlatformConstructors(t *testing.T) {
	if xkblas.DGX1().NumGPUs != 8 {
		t.Error("DGX1 should have 8 GPUs")
	}
	if xkblas.DGX1WithGPUs(4).NumGPUs != 4 {
		t.Error("DGX1WithGPUs(4) wrong")
	}
	if xkblas.SummitNode().NumGPUs != 6 {
		t.Error("SummitNode should have 6 GPUs")
	}
	opt := xkblas.DefaultOptions()
	if opt.Policy.Name() != "optimistic(topo-rank)/work-stealing/lru-read-only-first" {
		t.Error("default options must enable the paper's heuristics")
	}
}
