package core

import (
	"fmt"
	"math/rand"
	"testing"

	"xkblas/internal/hostblas"
	"xkblas/internal/matrix"
	"xkblas/internal/policy"
	"xkblas/internal/xkrt"
)

// Composition property test: a random sequence of BLAS-3 calls over a
// shared pool of matrices must produce the same results as the reference
// executed sequentially on the host — across every heuristic/scheduler
// configuration. This exercises the §IV-F claim that any sequence of
// asynchronous calls composes correctly through point-to-point
// dependencies, with tiles flowing device-to-device between calls.
func TestRandomCompositionSequences(t *testing.T) {
	configs := []struct {
		name string
		opt  xkrt.Options
	}{
		{"full", xkrt.Options{Window: 4, Policy: &policy.XKBlas}},
		{"no-heuristics", xkrt.Options{Window: 2, Policy: &policy.NoHeuristicNoTopo}},
		{"dmdas", xkrt.Options{Window: 2, Policy: &policy.XKBlasDMDAS}},
		{"host-only", xkrt.Options{Window: 2, Policy: &policy.Bundle{Source: policy.HostOnly{}, Scheduler: policy.WorkStealing{}, Evictor: policy.LRUReadOnlyFirst{}}}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				runRandomSequence(t, cfg.opt, seed)
			}
		})
	}
}

// runRandomSequence builds matching library/reference states, applies the
// same random call sequence to both and compares.
func runRandomSequence(t *testing.T, opt xkrt.Options, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n, nb, pool, steps = 24, 8, 4, 7

	h := NewHandle(Config{TileSize: nb, Functional: true, Options: opt})

	// Paired storage: lib[i] is driven through XKBLAS, ref[i] through the
	// host reference.
	lib := make([]matrix.View, pool)
	ref := make([]matrix.View, pool)
	regs := make([]*xkrt.Matrix, pool)
	for i := range lib {
		lib[i] = matrix.New(n, n)
		// Diagonal dominance keeps TRSM well-conditioned whichever matrix
		// plays the triangular role.
		lib[i].FillIdentityPlus(float64(n)+6, rng)
		ref[i] = lib[i].Clone()
		regs[i] = h.Register(lib[i])
	}

	pick3 := func() (a, b, c int) {
		a = rng.Intn(pool)
		b = rng.Intn(pool)
		for {
			c = rng.Intn(pool)
			if c != a && c != b {
				return a, b, c
			}
		}
	}
	var log []string
	for s := 0; s < steps; s++ {
		switch rng.Intn(4) {
		case 0:
			a, b, c := pick3()
			log = append(log, fmt.Sprintf("gemm C%d += A%d*B%d", c, a, b))
			h.GemmAsync(NoTrans, NoTrans, 0.5, regs[a], regs[b], 1, regs[c])
			hostblas.Gemm(NoTrans, NoTrans, 0.5, ref[a], ref[b], 1, ref[c])
		case 1:
			a, _, c := pick3()
			log = append(log, fmt.Sprintf("syrk C%d += A%d*A%dT", c, a, a))
			h.SyrkAsync(Lower, NoTrans, 0.25, regs[a], 1, regs[c])
			hostblas.Syrk(Lower, NoTrans, 0.25, ref[a], 1, ref[c])
		case 2:
			a, b, _ := pick3()
			if a == b {
				b = (a + 1) % pool
			}
			log = append(log, fmt.Sprintf("trsm B%d = A%d^-1 B%d", b, a, b))
			h.TrsmAsync(Left, Lower, NoTrans, NonUnit, 1, regs[a], regs[b])
			hostblas.Trsm(Left, Lower, NoTrans, NonUnit, 1, ref[a], ref[b])
		case 3:
			a, b, _ := pick3()
			if a == b {
				b = (a + 1) % pool
			}
			log = append(log, fmt.Sprintf("trmm B%d = A%d B%d", b, a, b))
			h.TrmmAsync(Left, Upper, NoTrans, NonUnit, 0.5, regs[a], regs[b])
			hostblas.Trmm(Left, Upper, NoTrans, NonUnit, 0.5, ref[a], ref[b])
		}
	}
	for i := range regs {
		h.MemoryCoherentAsync(regs[i])
	}
	h.Sync()
	for i := range lib {
		if d := matrix.MaxAbsDiff(lib[i], ref[i]); d > 1e-6 {
			t.Fatalf("seed %d: matrix %d diverged by %g after sequence:\n%v",
				seed, i, d, log)
		}
	}
}

// The same sequence must be deterministic in virtual time across repeated
// executions (the simulator invariant the harness depends on).
func TestCompositionDeterministicTime(t *testing.T) {
	run := func() float64 {
		rng := rand.New(rand.NewSource(99))
		h := NewHandle(Config{TileSize: 8, Functional: true})
		a := matrix.New(32, 32)
		b := matrix.New(32, 32)
		a.FillIdentityPlus(40, rng)
		b.FillRandom(rng)
		A, B := h.Register(a), h.Register(b)
		h.TrsmAsync(Left, Lower, NoTrans, NonUnit, 1, A, B)
		h.GemmAsync(NoTrans, NoTrans, 1, B, B, 1, B)
		h.MemoryCoherentAsync(B)
		return float64(h.Sync())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic virtual time: %g vs %g", a, b)
	}
}

// Like BLAS itself, XKBLAS forbids aliasing the output operand with an
// input within one call (GEMM's C must not overlap A or B). The runtime
// still must not deadlock or corrupt its metadata on such input — results
// are unspecified but the execution is required to complete and to be
// deterministic.
func TestSelfReferencingGemmCompletesDeterministically(t *testing.T) {
	run := func() (float64, float64) {
		rng := rand.New(rand.NewSource(5))
		h := NewHandle(Config{TileSize: 8, Functional: true})
		b := matrix.New(16, 16)
		b.FillRandom(rng)
		B := h.Register(b)
		h.GemmAsync(NoTrans, NoTrans, 1, B, B, 1, B)
		h.MemoryCoherentAsync(B)
		end := h.Sync()
		return float64(end), b.At(7, 7)
	}
	t1, v1 := run()
	t2, v2 := run()
	if t1 != t2 || v1 != v2 {
		t.Fatalf("aliased call nondeterministic: (%g,%g) vs (%g,%g)", t1, v1, t2, v2)
	}
}
