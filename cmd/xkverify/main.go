// Command xkverify runs the library in functional mode against the
// reference implementation on randomized problems — the analogue of the
// "testing codes" every library in the paper's §IV-A ships. It exercises
// the full routine set (six real, ZGEMM, the Hermitian trio and the complex
// triangular pair) with random
// shapes, flags and scalars across every heuristic configuration.
//
//	xkverify              # default 25 trials
//	xkverify -trials 100 -seed 7
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"xkblas/internal/core"
	"xkblas/internal/hostblas"
	"xkblas/internal/matrix"
	"xkblas/internal/policy"
	"xkblas/internal/xkrt"
	"xkblas/internal/zblas"
)

var configs = []struct {
	name string
	opt  xkrt.Options
}{
	{"full", xkrt.Options{Window: 4, Policy: &policy.XKBlas}},
	{"no-heuristics", xkrt.Options{Window: 2, Policy: &policy.NoHeuristicNoTopo}},
	{"dmdas", xkrt.Options{Window: 2, Policy: &policy.XKBlasDMDAS}},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run verifies every routine and returns the exit status: 0 when all
// match, 1 on a mismatch, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xkverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	trials := fs.Int("trials", 25, "randomized trials per routine and configuration")
	seed := fs.Int64("seed", 1, "base random seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *trials < 1 {
		fmt.Fprintf(stderr, "xkverify: -trials must be >= 1, got %d\n", *trials)
		fs.Usage()
		return 2
	}

	failures := 0
	for _, cfg := range configs {
		for t := 0; t < *trials; t++ {
			rng := rand.New(rand.NewSource(*seed + int64(t)*1000003))
			failures += verifyReal(stdout, cfg.name, cfg.opt, rng)
			failures += verifyComplex(stdout, cfg.name, cfg.opt, rng)
		}
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "FAILED: %d mismatches\n", failures)
		return 1
	}
	fmt.Fprintf(stdout, "all routines verified: %d trials x %d configs, real + complex ✓\n",
		*trials, len(configs))
	return 0
}

func report(w io.Writer, label string, diff, tol float64) int {
	if diff > tol {
		fmt.Fprintf(w, "MISMATCH %-40s diff=%g\n", label, diff)
		return 1
	}
	return 0
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

func verifyReal(w io.Writer, cfgName string, opt xkrt.Options, rng *rand.Rand) int {
	nb := 4 + rng.Intn(8)
	m := nb + rng.Intn(4*nb)
	n := nb + rng.Intn(4*nb)
	k := nb + rng.Intn(4*nb)
	h := core.NewHandle(core.Config{TileSize: nb, Functional: true, Options: opt})
	fail := 0

	trans := []core.Trans{core.NoTrans, core.Transpose}
	uplos := []core.Uplo{core.Lower, core.Upper}
	sides := []core.Side{core.Left, core.Right}
	diags := []core.Diag{core.NonUnit, core.Unit}
	alpha := 2*rng.Float64() - 1
	beta := 2*rng.Float64() - 1

	// GEMM
	{
		ta, tb := pick(rng, trans), pick(rng, trans)
		a := randShaped(rng, ta, m, k)
		b := randShaped(rng, tb, k, n)
		c := randMat(rng, m, n)
		want := c.Clone()
		hostblas.Gemm(ta, tb, alpha, a, b, beta, want)
		A, B, C := h.Register(a), h.Register(b), h.Register(c)
		h.GemmAsync(ta, tb, alpha, A, B, beta, C)
		h.MemoryCoherentAsync(C)
		h.Sync()
		fail += report(w, fmt.Sprintf("%s GEMM(%c%c) nb=%d %dx%dx%d", cfgName, ta, tb, nb, m, n, k),
			matrix.MaxAbsDiff(c, want), 1e-9)
	}
	// SYMM
	{
		side, uplo := pick(rng, sides), pick(rng, uplos)
		dim := m
		if side == core.Right {
			dim = n
		}
		a := randMat(rng, dim, dim)
		b := randMat(rng, m, n)
		c := randMat(rng, m, n)
		want := c.Clone()
		hostblas.Symm(side, uplo, alpha, a, b, beta, want)
		A, B, C := h.Register(a), h.Register(b), h.Register(c)
		h.SymmAsync(side, uplo, alpha, A, B, beta, C)
		h.MemoryCoherentAsync(C)
		h.Sync()
		fail += report(w, fmt.Sprintf("%s SYMM(%c%c)", cfgName, side, uplo),
			matrix.MaxAbsDiff(c, want), 1e-9)
	}
	// SYRK / SYR2K
	{
		uplo, tr := pick(rng, uplos), pick(rng, trans)
		a := randShaped(rng, tr, n, k)
		b := randShaped(rng, tr, n, k)
		c := randMat(rng, n, n)
		want := c.Clone()
		hostblas.Syr2k(uplo, tr, alpha, a, b, beta, want)
		A, B, C := h.Register(a), h.Register(b), h.Register(c)
		h.Syr2kAsync(uplo, tr, alpha, A, B, beta, C)
		h.MemoryCoherentAsync(C)
		h.Sync()
		fail += report(w, fmt.Sprintf("%s SYR2K(%c%c)", cfgName, uplo, tr),
			matrix.MaxAbsDiff(c, want), 1e-9)

		c2 := randMat(rng, n, n)
		want2 := c2.Clone()
		hostblas.Syrk(uplo, tr, alpha, a, beta, want2)
		C2 := h.Register(c2)
		h.SyrkAsync(uplo, tr, alpha, h.Register(a), beta, C2)
		h.MemoryCoherentAsync(C2)
		h.Sync()
		fail += report(w, fmt.Sprintf("%s SYRK(%c%c)", cfgName, uplo, tr),
			matrix.MaxAbsDiff(c2, want2), 1e-9)
	}
	// TRMM / TRSM
	{
		side, uplo, ta, diag := pick(rng, sides), pick(rng, uplos), pick(rng, trans), pick(rng, diags)
		dim := m
		if side == core.Right {
			dim = n
		}
		a := matrix.New(dim, dim)
		a.FillIdentityPlus(float64(dim)+4, rng)
		b := randMat(rng, m, n)
		want := b.Clone()
		hostblas.Trmm(side, uplo, ta, diag, alpha, a, want)
		A, B := h.Register(a), h.Register(b)
		h.TrmmAsync(side, uplo, ta, diag, alpha, A, B)
		h.MemoryCoherentAsync(B)
		h.Sync()
		fail += report(w, fmt.Sprintf("%s TRMM(%c%c%c%c)", cfgName, side, uplo, ta, diag),
			matrix.MaxAbsDiff(b, want), 1e-8)

		b2 := randMat(rng, m, n)
		want2 := b2.Clone()
		hostblas.Trsm(side, uplo, ta, diag, alpha, a, want2)
		B2 := h.Register(b2)
		h.TrsmAsync(side, uplo, ta, diag, alpha, h.Register(a), B2)
		h.MemoryCoherentAsync(B2)
		h.Sync()
		fail += report(w, fmt.Sprintf("%s TRSM(%c%c%c%c)", cfgName, side, uplo, ta, diag),
			matrix.MaxAbsDiff(b2, want2), 1e-7)
	}
	return fail
}

func verifyComplex(w io.Writer, cfgName string, opt xkrt.Options, rng *rand.Rand) int {
	nb := 4 + rng.Intn(6)
	m := nb + rng.Intn(3*nb)
	n := nb + rng.Intn(3*nb)
	k := nb + rng.Intn(3*nb)
	h := core.NewHandle(core.Config{TileSize: nb, Functional: true, Options: opt})
	fail := 0

	trans := []core.Trans{core.NoTrans, core.Transpose, core.ConjTrans}
	herm := []core.Trans{core.NoTrans, core.ConjTrans}
	uplos := []core.Uplo{core.Lower, core.Upper}
	sides := []core.Side{core.Left, core.Right}
	diags := []core.Diag{core.NonUnit, core.Unit}
	alpha := complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	beta := complex(2*rng.Float64()-1, 2*rng.Float64()-1)

	// ZGEMM
	{
		ta, tb := pick(rng, trans), pick(rng, trans)
		a := randZShaped(rng, ta, m, k)
		b := randZShaped(rng, tb, k, n)
		c := randZ(rng, m, n)
		want := c.Clone()
		zblas.Gemm(ta, tb, alpha, a, b, beta, want)
		A, B, C := h.RegisterZ(a), h.RegisterZ(b), h.RegisterZ(c)
		h.ZgemmAsync(ta, tb, alpha, A, B, beta, C)
		h.MemoryCoherentAsync(C)
		h.Sync()
		fail += report(w, fmt.Sprintf("%s ZGEMM(%c%c) nb=%d %dx%dx%d", cfgName, ta, tb, nb, m, n, k),
			matrix.MaxAbsDiffZ(c, want), 1e-9)
	}
	// HEMM
	{
		side, uplo := pick(rng, sides), pick(rng, uplos)
		dim := m
		if side == core.Right {
			dim = n
		}
		a := randZ(rng, dim, dim)
		b := randZ(rng, m, n)
		c := randZ(rng, m, n)
		want := c.Clone()
		zblas.Hemm(side, uplo, alpha, a, b, beta, want)
		A, B, C := h.RegisterZ(a), h.RegisterZ(b), h.RegisterZ(c)
		h.ZhemmAsync(side, uplo, alpha, A, B, beta, C)
		h.MemoryCoherentAsync(C)
		h.Sync()
		fail += report(w, fmt.Sprintf("%s HEMM(%c%c)", cfgName, side, uplo),
			matrix.MaxAbsDiffZ(c, want), 1e-9)
	}
	// HERK / HER2K
	{
		uplo, tr := pick(rng, uplos), pick(rng, herm)
		a := randZShaped(rng, tr, n, k)
		b := randZShaped(rng, tr, n, k)
		c := randZ(rng, n, n)
		want := c.Clone()
		zblas.Her2k(uplo, tr, alpha, a, b, real(beta), want)
		A, B, C := h.RegisterZ(a), h.RegisterZ(b), h.RegisterZ(c)
		h.Zher2kAsync(uplo, tr, alpha, A, B, real(beta), C)
		h.MemoryCoherentAsync(C)
		h.Sync()
		fail += report(w, fmt.Sprintf("%s HER2K(%c%c)", cfgName, uplo, tr),
			matrix.MaxAbsDiffZ(c, want), 1e-9)

		c2 := randZ(rng, n, n)
		want2 := c2.Clone()
		zblas.Herk(uplo, tr, real(alpha), a, real(beta), want2)
		C2 := h.RegisterZ(c2)
		h.ZherkAsync(uplo, tr, real(alpha), h.RegisterZ(a), real(beta), C2)
		h.MemoryCoherentAsync(C2)
		h.Sync()
		fail += report(w, fmt.Sprintf("%s HERK(%c%c)", cfgName, uplo, tr),
			matrix.MaxAbsDiffZ(c2, want2), 1e-9)
	}
	// ZTRMM / ZTRSM
	{
		side, uplo, ta, diag := pick(rng, sides), pick(rng, uplos), pick(rng, trans), pick(rng, diags)
		dim := m
		if side == core.Right {
			dim = n
		}
		a := randZ(rng, dim, dim)
		for i := 0; i < dim; i++ {
			a.Set(i, i, a.At(i, i)+complex(float64(dim)+4, 0))
		}
		b := randZ(rng, m, n)
		want := b.Clone()
		zblas.Trmm(side, uplo, ta, diag, alpha, a, want)
		A, B := h.RegisterZ(a), h.RegisterZ(b)
		h.ZtrmmAsync(side, uplo, ta, diag, alpha, A, B)
		h.MemoryCoherentAsync(B)
		h.Sync()
		fail += report(w, fmt.Sprintf("%s ZTRMM(%c%c%c%c)", cfgName, side, uplo, ta, diag),
			matrix.MaxAbsDiffZ(b, want), 1e-8)

		b2 := randZ(rng, m, n)
		want2 := b2.Clone()
		zblas.Trsm(side, uplo, ta, diag, alpha, a, want2)
		B2 := h.RegisterZ(b2)
		h.ZtrsmAsync(side, uplo, ta, diag, alpha, h.RegisterZ(a), B2)
		h.MemoryCoherentAsync(B2)
		h.Sync()
		fail += report(w, fmt.Sprintf("%s ZTRSM(%c%c%c%c)", cfgName, side, uplo, ta, diag),
			matrix.MaxAbsDiffZ(b2, want2), 1e-7)
	}
	return fail
}

func randMat(rng *rand.Rand, m, n int) matrix.View {
	v := matrix.New(m, n)
	v.FillRandom(rng)
	return v
}

func randShaped(rng *rand.Rand, t core.Trans, rows, cols int) matrix.View {
	if t == core.NoTrans {
		return randMat(rng, rows, cols)
	}
	return randMat(rng, cols, rows)
}

func randZ(rng *rand.Rand, m, n int) matrix.ZMat {
	z := matrix.NewZ(m, n)
	z.FillRandom(rng)
	return z
}

func randZShaped(rng *rand.Rand, t core.Trans, rows, cols int) matrix.ZMat {
	if t == core.NoTrans {
		return randZ(rng, rows, cols)
	}
	return randZ(rng, cols, rows)
}
