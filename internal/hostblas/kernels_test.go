package hostblas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xkblas/internal/blasops"
	"xkblas/internal/matrix"
)

// trial is one random problem: the output is m×n, the contraction k.
type trial struct {
	rng         *rand.Rand
	m, n, k     int
	zeros       float64 // fraction of operand elements set to zero
	infs        bool    // whether about 2% of operand elements are ±Inf
	alpha, beta float64
}

func randomTrial(rng *rand.Rand) *trial {
	t := &trial{rng: rng, m: rng.Intn(41), n: rng.Intn(41), k: rng.Intn(41)}
	t.zeros = []float64{0, 0, 0.1, 0.5}[rng.Intn(4)]
	t.infs = rng.Intn(8) == 0
	t.alpha = []float64{0, 1, -1, 2*rng.Float64() - 1, 2*rng.Float64() - 1}[rng.Intn(5)]
	t.beta = []float64{0, 1, 2*rng.Float64() - 1}[rng.Intn(3)]
	return t
}

// operand returns an m×n view with ld > m (the padding rows are filled
// too, so a kernel that writes them shows up) whose elements are uniform
// in [-1,1), a fraction t.zeros of them zero. With t.infs a few are ±Inf,
// which tells a skipped zero product from an added one (0·Inf is NaN).
func (t *trial) operand(m, n int) matrix.View {
	ld := m + 1 + t.rng.Intn(3)
	v := matrix.FromSlice(make([]float64, ld*n), m, n, ld)
	for i := range v.Data {
		v.Data[i] = 2*t.rng.Float64() - 1
		if t.rng.Float64() < t.zeros {
			v.Data[i] = 0
		}
		if t.infs && t.rng.Float64() < 0.02 {
			v.Data[i] = math.Inf(1 - 2*t.rng.Intn(2))
		}
	}
	return v
}

// opShaped returns the stored operand whose op is rows×cols.
func (t *trial) opShaped(tr Trans, rows, cols int) matrix.View {
	if tr == NoTrans {
		return t.operand(rows, cols)
	}
	return t.operand(cols, rows)
}

// output returns the initial C of an update with t.beta; with beta = 0
// every element is NaN, which the kernel must overwrite, not scale.
func (t *trial) output(m, n int) matrix.View {
	c := t.operand(m, n)
	if t.beta == 0 {
		for i := range c.Data {
			c.Data[i] = math.NaN()
		}
	}
	return c
}

// triangular returns a dim×dim A for TRSM: a diagonal of dim+4 or more
// keeps the solve well conditioned.
func (t *trial) triangular(dim int) matrix.View {
	a := t.operand(dim, dim)
	for i := 0; i < dim; i++ {
		a.Set(i, i, float64(dim)+4+t.rng.Float64())
	}
	return a
}

// sideDim is the order of A for a SYMM, TRMM or TRSM on an m×n B.
func (t *trial) sideDim(side Side) int {
	if side == Left {
		return t.m
	}
	return t.n
}

// flagCase is one routine at one flag combination. draw makes a random
// problem and returns the initial output with two calls that update an
// output in place: the kernel and the oracle.
type flagCase struct {
	name string
	draw func(t *trial) (out matrix.View, kernel, oracle func(matrix.View))
}

// flagCases lists every routine at every flag combination.
func flagCases() []flagCase {
	transes := []Trans{NoTrans, Transpose}
	sides := []Side{Left, Right}
	uplos := []Uplo{Lower, Upper}
	diags := []Diag{NonUnit, Unit}
	var cs []flagCase
	for _, ta := range transes {
		for _, tb := range transes {
			cs = append(cs, flagCase{fmt.Sprintf("GEMM(%c%c)", ta, tb), func(t *trial) (matrix.View, func(matrix.View), func(matrix.View)) {
				a, b := t.opShaped(ta, t.m, t.k), t.opShaped(tb, t.k, t.n)
				return t.output(t.m, t.n),
					func(c matrix.View) { Gemm(ta, tb, t.alpha, a, b, t.beta, c) },
					func(c matrix.View) { refGemm(ta, tb, t.alpha, a, b, t.beta, c) }
			}})
		}
	}
	for _, side := range sides {
		for _, uplo := range uplos {
			cs = append(cs, flagCase{fmt.Sprintf("SYMM(%c%c)", side, uplo), func(t *trial) (matrix.View, func(matrix.View), func(matrix.View)) {
				dim := t.sideDim(side)
				a, b := t.operand(dim, dim), t.operand(t.m, t.n)
				return t.output(t.m, t.n),
					func(c matrix.View) { Symm(side, uplo, t.alpha, a, b, t.beta, c) },
					func(c matrix.View) { refSymm(side, uplo, t.alpha, a, b, t.beta, c) }
			}})
		}
	}
	for _, uplo := range uplos {
		for _, tr := range transes {
			cs = append(cs, flagCase{fmt.Sprintf("SYRK(%c%c)", uplo, tr), func(t *trial) (matrix.View, func(matrix.View), func(matrix.View)) {
				a := t.opShaped(tr, t.n, t.k)
				return t.output(t.n, t.n),
					func(c matrix.View) { Syrk(uplo, tr, t.alpha, a, t.beta, c) },
					func(c matrix.View) { refSyrk(uplo, tr, t.alpha, a, t.beta, c) }
			}})
			cs = append(cs, flagCase{fmt.Sprintf("SYR2K(%c%c)", uplo, tr), func(t *trial) (matrix.View, func(matrix.View), func(matrix.View)) {
				a, b := t.opShaped(tr, t.n, t.k), t.opShaped(tr, t.n, t.k)
				return t.output(t.n, t.n),
					func(c matrix.View) { Syr2k(uplo, tr, t.alpha, a, b, t.beta, c) },
					func(c matrix.View) { refSyr2k(uplo, tr, t.alpha, a, b, t.beta, c) }
			}})
		}
	}
	for _, side := range sides {
		for _, uplo := range uplos {
			for _, ta := range transes {
				for _, diag := range diags {
					flags := fmt.Sprintf("(%c%c%c%c)", side, uplo, ta, diag)
					cs = append(cs, flagCase{"TRMM" + flags, func(t *trial) (matrix.View, func(matrix.View), func(matrix.View)) {
						a := t.operand(t.sideDim(side), t.sideDim(side))
						return t.operand(t.m, t.n),
							func(b matrix.View) { Trmm(side, uplo, ta, diag, t.alpha, a, b) },
							func(b matrix.View) { refTrmm(side, uplo, ta, diag, t.alpha, a, b) }
					}})
					cs = append(cs, flagCase{"TRSM" + flags, func(t *trial) (matrix.View, func(matrix.View), func(matrix.View)) {
						a := t.triangular(t.sideDim(side))
						return t.operand(t.m, t.n),
							func(b matrix.View) { Trsm(side, uplo, ta, diag, t.alpha, a, b) },
							func(b matrix.View) { refTrsm(side, uplo, ta, diag, t.alpha, a, b) }
					}})
				}
			}
		}
	}
	return cs
}

// sameLayoutCopy returns a copy of v with v's leading dimension.
func sameLayoutCopy(v matrix.View) matrix.View {
	v.Data = append([]float64(nil), v.Data...)
	return v
}

// checkBitExact fails t at the first element, padding included, whose bits
// differ between got and want. Any two NaNs count as equal: IEEE leaves the
// payload of a propagated NaN to the hardware.
func checkBitExact(t *testing.T, label string, got, want matrix.View) {
	t.Helper()
	for x, w := range want.Data {
		g := got.Data[x]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element (%d,%d) = %v, oracle %v (bit-exact)", label, x%want.LD, x/want.LD, g, w)
		}
	}
}

// TestKernelsMatchReferenceBitExact checks the contract of the package doc:
// every kernel, at every flag combination, produces the oracle's bits on
// random shapes (ld > m, sizes not multiples of the kernels' blocking),
// with zeros and infinities in the operands, alpha = 0 and beta = 0 over a
// NaN-filled C.
func TestKernelsMatchReferenceBitExact(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 20
	}
	rng := rand.New(rand.NewSource(15))
	for _, fc := range flagCases() {
		for i := 0; i < trials; i++ {
			tr := randomTrial(rng)
			out, kernel, oracle := fc.draw(tr)
			got, want := sameLayoutCopy(out), sameLayoutCopy(out)
			kernel(got)
			oracle(want)
			checkBitExact(t, fmt.Sprintf("%s trial %d m=%d n=%d k=%d alpha=%v beta=%v zeros=%v infs=%v",
				fc.name, i, tr.m, tr.n, tr.k, tr.alpha, tr.beta, tr.zeros, tr.infs), got, want)
		}
	}

	// The parallel GEMM splits C's columns across goroutines; each element
	// must still match the sequential oracle.
	defer SetParallelism(0)
	SetParallelism(3)
	for _, fc := range flagCases()[:4] {
		tr := &trial{rng: rng, m: 101, n: 103, k: 107, zeros: 0.05, alpha: 1.25, beta: 0.5}
		if tr.m*tr.n*tr.k < gemmParallelMinFlops {
			t.Fatal("parallel case is below the fan-out threshold")
		}
		out, kernel, oracle := fc.draw(tr)
		got, want := sameLayoutCopy(out), sameLayoutCopy(out)
		kernel(got)
		oracle(want)
		checkBitExact(t, fc.name+" at SetParallelism(3)", got, want)
	}
}

// TestTileKernelsAllocFree is the allocation gate of the functional-mode
// tile kernels: at tile size 32 no routine allocates at any flag
// combination (scratch comes from a sync.Pool), so a functional run's
// memory does not grow with its kernel count. The race detector makes
// sync.Pool drop items at random, so the count is only asserted without
// it (make bench-alloc).
func TestTileKernelsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer SetParallelism(0)
	SetParallelism(1)
	rng := rand.New(rand.NewSource(32))
	for _, fc := range flagCases() {
		tr := &trial{rng: rng, m: 32, n: 32, k: 32, alpha: 0.7, beta: 0.5}
		out, kernel, _ := fc.draw(tr)
		if n := testing.AllocsPerRun(20, func() { kernel(out) }); n != 0 {
			t.Errorf("%s at n=32: %v allocs per call, want 0", fc.name, n)
		}
	}
}

// BenchmarkKernels times the six routines at the flags functional-mode
// runs use, on n×n operands at the tile size (32) and the reference size
// (256) of the functional-check workload, with the GEMM fan-out off. Each
// iteration first restores the output operand (n² copies beside the
// kernel's ~n³ multiply-adds) so repeated in-place updates stay on
// representative values.
func BenchmarkKernels(b *testing.B) {
	defer SetParallelism(0)
	SetParallelism(1)
	const alpha, beta = 0.7, 0.5
	calls := []struct {
		r   blasops.Routine
		run func(a, bb, c matrix.View)
	}{
		{blasops.Gemm, func(a, bb, c matrix.View) { Gemm(NoTrans, NoTrans, alpha, a, bb, beta, c) }},
		{blasops.Symm, func(a, bb, c matrix.View) { Symm(Left, Lower, alpha, a, bb, beta, c) }},
		{blasops.Syrk, func(a, _, c matrix.View) { Syrk(Lower, NoTrans, alpha, a, beta, c) }},
		{blasops.Syr2k, func(a, bb, c matrix.View) { Syr2k(Lower, NoTrans, alpha, a, bb, beta, c) }},
		{blasops.Trmm, func(a, _, c matrix.View) { Trmm(Left, Lower, NoTrans, NonUnit, alpha, a, c) }},
		{blasops.Trsm, func(a, _, c matrix.View) { Trsm(Left, Lower, NoTrans, NonUnit, alpha, a, c) }},
	}
	for _, n := range []int{32, 256} {
		rng := rand.New(rand.NewSource(int64(n)))
		a, bb, c0 := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
		a.FillIdentityPlus(float64(n)+4, rng)
		bb.FillRandom(rng)
		c0.FillRandom(rng)
		for _, call := range calls {
			b.Run(fmt.Sprintf("%v/n=%d", call.r, n), func(b *testing.B) {
				c := c0.Clone()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(c.Data, c0.Data)
					call.run(a, bb, c)
				}
				flops := blasops.FlopsSquare(call.r, n) * float64(b.N)
				b.ReportMetric(blasops.GFlops(flops, b.Elapsed().Seconds()), "GFlop/s")
			})
		}
	}
}
