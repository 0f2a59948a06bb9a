package bench

import (
	"bytes"
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
	"xkblas/internal/xkrt"
)

// countingLib counts the Library.Run calls that reach the wrapped library.
type countingLib struct {
	baseline.Library
	runs *atomic.Int64
}

func (l countingLib) Run(req baseline.Request) baseline.Result {
	l.runs.Add(1)
	return l.Library.Run(req)
}

// memoSweeps runs two overlapping sweeps on cfg — the second re-measures
// the first's XKBlas points — and returns both point sets and the CSV of
// each.
func memoSweeps(cfg Config, runs *atomic.Int64) (a, b []Point, csv []byte) {
	xk := countingLib{baseline.XKBlas(), runs}
	cfg.Libs = []baseline.Library{xk, countingLib{baseline.CuBLASXT(), runs}}
	a = RunSweep(cfg)
	cfg.Libs = []baseline.Library{countingLib{baseline.XKBlasNoHeuristic(), runs}, xk}
	b = RunSweep(cfg)
	var buf bytes.Buffer
	WriteCSV(&buf, a)
	WriteCSV(&buf, b)
	return a, b, buf.Bytes()
}

// TestLeafMemoMatchesUnmemoized: sweeps that share a memo produce the same
// points, bit for bit, as sweeps that simulate every leaf, sequentially and
// at -parallel 8, while the memo simulates each shared leaf once.
func TestLeafMemoMatchesUnmemoized(t *testing.T) {
	base := parityConfig()
	base.Routines = []blasops.Routine{blasops.Gemm}
	base.Sizes = []int{4096}
	var plain atomic.Int64
	wantA, wantB, wantCSV := memoSweeps(base, &plain)
	for _, parallel := range []int{1, 8} {
		cfg := base
		cfg.Parallel = parallel
		cfg.Memo = NewLeafMemo()
		var memo atomic.Int64
		a, b, csv := memoSweeps(cfg, &memo)
		pointsIdentical(t, "first sweep", wantA, a)
		pointsIdentical(t, "second sweep", wantB, b)
		if !bytes.Equal(wantCSV, csv) {
			t.Fatalf("parallel %d: CSV differs with the memo", parallel)
		}
		// XKBlas GEMM at N = 4096 over two tiles and two runs is four
		// leaves the second sweep reads instead of simulating.
		if got, want := memo.Load(), plain.Load()-4; got != want {
			t.Fatalf("parallel %d: memoized sweeps simulated %d leaves, want %d", parallel, got, want)
		}
	}
}

// TestLeafMemoNilSimulatesEveryLeaf: without a memo every leaf is
// simulated, every time — tiles × runs per point, no warm-up — which is
// what a benchmark repeating one sweep relies on.
func TestLeafMemoNilSimulatesEveryLeaf(t *testing.T) {
	var runs atomic.Int64
	lib := countingLib{baseline.XKBlas(), &runs}
	cfg := Config{Tiles: []int{1024, 2048}, Runs: 3, NoiseAmp: 0.02}
	for i := 1; i <= 2; i++ {
		if p := MeasurePoint(cfg, lib, blasops.Gemm, 4096); p.Err != nil {
			t.Fatal(p.Err)
		}
		if got, want := runs.Load(), int64(i*2*3); got != want {
			t.Fatalf("after %d points: %d Library.Run calls, want %d", i, got, want)
		}
	}
}

// TestLeafMemoSkipsCancelledLeaf: a cancelled leaf is not stored, so the
// next caller simulates the key again; a completed one is stored and read.
func TestLeafMemoSkipsCancelledLeaf(t *testing.T) {
	m := NewLeafMemo()
	req := baseline.Request{Routine: blasops.Gemm, N: 4096, NB: 1024}
	calls := 0
	run := func(err error) func() baseline.Result {
		return func() baseline.Result {
			calls++
			return baseline.Result{GFlops: float64(calls), Err: err}
		}
	}
	m.leaf("lib", req, run(&xkrt.CanceledError{Cause: context.Canceled}))
	m.leaf("lib", req, run(context.DeadlineExceeded))
	if got := m.leaf("lib", req, run(nil)); calls != 3 || got.GFlops != 3 {
		t.Fatalf("cancelled leaves were stored: %d simulations, result %v", calls, got.GFlops)
	}
	if got := m.leaf("lib", req, run(nil)); calls != 3 || got.GFlops != 3 {
		t.Fatalf("completed leaf was not stored: %d simulations, result %v", calls, got.GFlops)
	}
	other := req
	other.Metrics = true
	if m.leaf("lib", other, run(nil)); calls != 4 {
		t.Fatal("requests with different Metrics shared one leaf")
	}
}

// TestLeafMemoLibraryNamesUnique: the memo keys a library by name, so every
// name must stand for one configuration. Each constructor is called twice;
// both values must be equal, and no two constructors may share a name.
func TestLeafMemoLibraryNamesUnique(t *testing.T) {
	constructors := []func() baseline.Library{
		baseline.XKBlas, baseline.XKBlasNearest, baseline.XKBlasNoHeuristic,
		baseline.XKBlasNoHeuristicNoTopo, baseline.CuBLASXT, baseline.CuBLASMG,
		baseline.ChameleonTile, baseline.ChameleonLAPACK, baseline.BLASX,
		baseline.DPLASMA, baseline.Slate,
	}
	seen := make(map[string]bool)
	for _, mk := range constructors {
		a, b := mk(), mk()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two values of one constructor differ", a.Name())
		}
		if seen[a.Name()] {
			t.Errorf("%s: name shared by two constructors", a.Name())
		}
		seen[a.Name()] = true
	}
	for _, lib := range append(Roster(), fig6Libs()...) {
		if !seen[lib.Name()] {
			t.Errorf("%s: roster library built outside the constructors above", lib.Name())
		}
	}
}
