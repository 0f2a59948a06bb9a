package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
)

// parityConfig is a quick sweep that still exercises multiple routines,
// libraries, tile candidates, noisy repetitions and an infeasible point.
func parityConfig() Config {
	return Config{
		Libs: []baseline.Library{
			baseline.XKBlas(),
			baseline.CuBLASXT(),
			baseline.Slate(),
		},
		Routines:      []blasops.Routine{blasops.Gemm, blasops.Trsm},
		Sizes:         []int{4096, 8192},
		Tiles:         []int{1024, 2048},
		ExtraTilesFor: map[string]bool{"cuBLAS-XT": true, "Slate": true},
		Runs:          2,
		NoiseAmp:      0.02,
		Metrics:       true,
	}
}

// pointsIdentical compares two point slices bit-for-bit (GFlops, CI95, NB,
// order, error text).
func pointsIdentical(t *testing.T, label string, a, b []Point) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: point counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		p, q := a[i], b[i]
		if p.Lib != q.Lib || p.Routine != q.Routine || p.N != q.N {
			t.Fatalf("%s: point %d order differs: %v vs %v", label, i, p, q)
		}
		if p.NB != q.NB || p.GFlops != q.GFlops || p.CI95 != q.CI95 || p.Runs != q.Runs {
			t.Fatalf("%s: point %d values differ:\n  seq: %+v\n  par: %+v", label, i, p, q)
		}
		if p.Decisions != q.Decisions {
			t.Fatalf("%s: point %d decision counters differ:\n  seq: %v\n  par: %v",
				label, i, p.Decisions, q.Decisions)
		}
		if !p.Metrics.Equal(q.Metrics) {
			t.Fatalf("%s: point %d metrics snapshots differ (lens %d vs %d)",
				label, i, len(p.Metrics), len(q.Metrics))
		}
		pe, qe := "", ""
		if p.Err != nil {
			pe = p.Err.Error()
		}
		if q.Err != nil {
			qe = q.Err.Error()
		}
		if pe != qe {
			t.Fatalf("%s: point %d errors differ: %q vs %q", label, i, pe, qe)
		}
	}
}

// TestRunSweepParallelParity proves the determinism guarantee of the
// executor: parallelism 1, 4 and NumCPU return bit-identical
// points and identical Progress streams.
func TestRunSweepParallelParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-level sweep parity is not a -short test")
	}
	base := parityConfig()
	var seqProgress bytes.Buffer
	base.Progress = &seqProgress
	base.Parallel = 1
	seq := RunSweep(base)

	for _, workers := range []int{4, runtime.NumCPU()} {
		cfg := parityConfig()
		var progress bytes.Buffer
		cfg.Progress = &progress
		cfg.Parallel = workers
		par := RunSweep(cfg)
		pointsIdentical(t, fmt.Sprintf("parallel=%d", workers), seq, par)
		if progress.String() != seqProgress.String() {
			t.Fatalf("parallel=%d progress stream differs:\n--- sequential ---\n%s--- parallel ---\n%s",
				workers, seqProgress.String(), progress.String())
		}
	}
}

// TestMeasurePointParallelParity checks the per-tile/per-repetition fan-out
// inside a single point, including the all-tiles-fail error path.
func TestMeasurePointParallelParity(t *testing.T) {
	cfg := Config{Tiles: []int{1024, 2048, 4096}, Runs: 3, NoiseAmp: 0.02}
	lib := baseline.XKBlas()
	seq := MeasurePoint(cfg, lib, blasops.Gemm, 8192)
	cfg.Parallel = 4
	par := MeasurePoint(cfg, lib, blasops.Gemm, 8192)
	pointsIdentical(t, "point", []Point{seq}, []Point{par})

	// All tiles infeasible under the cap: both paths must surface the same
	// tagged error.
	failCfg := Config{Tiles: []int{512, 1024}, Runs: 1, MaxTilesPerDim: 2}
	seqErr := MeasurePoint(failCfg, lib, blasops.Gemm, 16384)
	failCfg.Parallel = 4
	parErr := MeasurePoint(failCfg, lib, blasops.Gemm, 16384)
	if seqErr.Err == nil || parErr.Err == nil {
		t.Fatalf("expected errors, got seq=%v par=%v", seqErr.Err, parErr.Err)
	}
	pointsIdentical(t, "error point", []Point{seqErr}, []Point{parErr})
}

// TestTileCandidatesDeduped covers the ExtraTilesFor dedupe: a tile listed
// both in cfg.Tiles and in the extra set is measured once.
func TestTileCandidatesDeduped(t *testing.T) {
	cfg := Config{
		Tiles:         []int{1024, 8192, 2048},
		ExtraTilesFor: map[string]bool{"cuBLAS-XT": true},
	}
	got := tileCandidates(cfg, baseline.CuBLASXT())
	want := []int{1024, 8192, 2048, 16384}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates = %v, want %v", got, want)
		}
	}
	// A library without extras keeps the configured list untouched.
	plain := tileCandidates(cfg, baseline.XKBlas())
	if len(plain) != 3 {
		t.Fatalf("plain candidates = %v, want the 3 configured tiles", plain)
	}
}

// failingLib is a stub library whose every run fails, for exercising the
// all-tiles-fail error path deterministically.
type failingLib struct{}

func (failingLib) Name() string                    { return "failing" }
func (failingLib) Supports(r blasops.Routine) bool { return true }
func (failingLib) Run(req baseline.Request) baseline.Result {
	return baseline.Result{Err: fmt.Errorf("simulated allocation failure (nb=%d)", req.NB)}
}

// TestMeasurePointErrorRetainsTile asserts the all-tiles-fail point names
// the last failing tile size and retains its underlying error, instead of
// the bare placeholder; when no tile was even attempted the placeholder
// stands alone.
func TestMeasurePointErrorRetainsTile(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := Config{Tiles: []int{1024, 2048}, Runs: 1, Parallel: workers}
		p := MeasurePoint(cfg, failingLib{}, blasops.Gemm, 8192)
		if p.Err == nil {
			t.Fatal("expected an error when every tile fails")
		}
		msg := p.Err.Error()
		if !strings.Contains(msg, "no feasible tile size") ||
			!strings.Contains(msg, "nb=2048") ||
			!strings.Contains(msg, "simulated allocation failure") {
			t.Fatalf("parallel=%d: error %q does not carry the last failing tile and cause", workers, msg)
		}
	}

	// No tile attempted at all: the placeholder must stay untagged.
	cfg := Config{Tiles: []int{512}, Runs: 1, MaxTilesPerDim: 4}
	p := MeasurePoint(cfg, baseline.XKBlas(), blasops.Gemm, 16384)
	if p.Err == nil || p.Err.Error() != "no feasible tile size" {
		t.Fatalf("untried point error = %v, want bare placeholder", p.Err)
	}
}

// TestForEachStress hammers the executor's worker loop with many tiny
// calls at high concurrency; run with -race to verify it is race-clean.
func TestForEachStress(t *testing.T) {
	const calls = 2000
	var counter atomic.Int64
	slots := make([]int64, calls)
	forEach(32, calls, func(i int) {
		slots[i] = counter.Add(1)
		runtime.Gosched()
	})
	if got := counter.Load(); got != calls {
		t.Fatalf("made %d calls, want %d", got, calls)
	}
	for i, v := range slots {
		if v == 0 {
			t.Fatalf("index %d never ran", i)
		}
	}
}

// callLog records, without synchronisation, every Library.Run call and
// every Progress line of a sweep in the order they happen, and flags a
// call that overlaps another or runs off the goroutine that started the
// sweep. Concurrent use would also be a data race, which -race reports.
type callLog struct {
	events   []string
	caller   string // goroutine id of the sweep's caller
	inFlight int
	overlap  bool
	foreign  bool
}

func (lg *callLog) Write(p []byte) (int, error) {
	f := strings.Fields(string(p))
	lg.events = append(lg.events, "progress "+strings.Join(f[:3], " "))
	return len(p), nil
}

// goroutineID parses the running goroutine's id from its stack header,
// "goroutine 17 [running]:".
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// loggedLib is a stub library that appends each call's routine, N, NB and
// noise seed to a shared callLog.
type loggedLib struct {
	name string
	skip blasops.Routine // the one routine it does not support
	log  *callLog
}

func (l loggedLib) Name() string                    { return l.name }
func (l loggedLib) Supports(r blasops.Routine) bool { return r != l.skip }
func (l loggedLib) Run(req baseline.Request) baseline.Result {
	lg := l.log
	lg.inFlight++
	lg.overlap = lg.overlap || lg.inFlight > 1
	lg.foreign = lg.foreign || goroutineID() != lg.caller
	lg.events = append(lg.events, fmt.Sprintf("run %s %v N=%d NB=%d seed=%d",
		l.name, req.Routine, req.N, req.NB, req.NoiseSeed))
	runtime.Gosched()
	lg.inFlight--
	return baseline.Result{Elapsed: 1, GFlops: float64(req.N) + float64(req.NB)/1e4}
}

// TestOneWorkerIsTheSequentialLoop locks the single-worker contract that
// callers keeping unsynchronised state in a Library rely on: at Parallel
// ≤ 1 every Run call happens on the caller's goroutine, one at a time, in
// plan order (routine, library, size, tile, repetition), and each point's
// Progress line is written before the next point's first call. Points with
// no feasible tile (N=16) are reported in their place too. MeasurePoint
// follows the same order and writes no Progress line.
func TestOneWorkerIsTheSequentialLoop(t *testing.T) {
	for _, workers := range []int{0, 1} {
		lg := &callLog{caller: goroutineID()}
		libA := loggedLib{name: "LibA", skip: blasops.Symm, log: lg}
		libB := loggedLib{name: "LibB", skip: blasops.Trsm, log: lg}
		cfg := Config{
			Libs:     []baseline.Library{libA, libB},
			Routines: []blasops.Routine{blasops.Gemm, blasops.Trsm},
			Sizes:    []int{16, 100, 48},
			Tiles:    []int{32, 64},
			Runs:     2,
			Parallel: workers,
			Progress: lg,
		}
		var want []string
		leaves := func(lib string, r blasops.Routine, n int) {
			for _, nb := range cfg.Tiles {
				if nb > n {
					continue
				}
				for rep := 1; rep <= cfg.Runs; rep++ {
					want = append(want, fmt.Sprintf("run %s %v N=%d NB=%d seed=%d",
						lib, r, n, nb, rep*7919+n+nb))
				}
			}
		}
		for _, r := range cfg.Routines {
			for _, lib := range []loggedLib{libA, libB} {
				if !lib.Supports(r) {
					continue
				}
				for _, n := range cfg.Sizes {
					leaves(lib.name, r, n)
					want = append(want, fmt.Sprintf("progress %v %s N=%d", r, lib.name, n))
				}
			}
		}
		pts := RunSweep(cfg)
		if len(pts) != 9 {
			t.Fatalf("parallel=%d: %d points, want 9", workers, len(pts))
		}
		if lg.overlap || lg.foreign {
			t.Fatalf("parallel=%d: calls overlapped (%v) or ran off the caller's goroutine (%v)",
				workers, lg.overlap, lg.foreign)
		}
		if got := strings.Join(lg.events, "\n"); got != strings.Join(want, "\n") {
			t.Fatalf("parallel=%d: call order differs from the sequential loop:\n--- got ---\n%s\n--- want ---\n%s",
				workers, got, strings.Join(want, "\n"))
		}

		lg.events, want = nil, nil
		MeasurePoint(cfg, libB, blasops.Gemm, 100)
		leaves("LibB", blasops.Gemm, 100)
		if got := strings.Join(lg.events, "\n"); got != strings.Join(want, "\n") || lg.overlap || lg.foreign {
			t.Fatalf("parallel=%d: MeasurePoint calls:\n%s\nwant, on the caller, without a Progress line:\n%s",
				workers, got, strings.Join(want, "\n"))
		}
	}
}

// TestRunSweepParallelStress runs a small sweep at high parallelism; under
// -race it checks that concurrent simulations share no state.
func TestRunSweepParallelStress(t *testing.T) {
	cfg := Config{
		Libs:     []baseline.Library{baseline.XKBlas(), baseline.BLASX()},
		Routines: []blasops.Routine{blasops.Gemm},
		Sizes:    []int{4096, 8192},
		Tiles:    []int{1024, 2048},
		Runs:     2,
		NoiseAmp: 0.02,
		Parallel: 16,
	}
	pts := RunSweep(cfg)
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	for _, p := range pts {
		if p.Err != nil {
			t.Fatalf("point %v failed: %v", p, p.Err)
		}
	}
}

// benchmarkSweep measures the wall-clock of one quick sweep at a given
// parallelism; comparing Parallel1 vs Parallel4 vs ParallelNumCPU shows the
// multi-core speedup of the harness.
func benchmarkSweep(b *testing.B, workers int) {
	cfg := Config{
		Libs:     []baseline.Library{baseline.XKBlas(), baseline.CuBLASXT(), baseline.BLASX()},
		Routines: []blasops.Routine{blasops.Gemm, blasops.Syr2k},
		Sizes:    []int{8192, 16384},
		Tiles:    []int{1024, 2048, 4096},
		Runs:     3,
		NoiseAmp: 0.02,
		Parallel: workers,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := RunSweep(cfg)
		if len(pts) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

func BenchmarkSweepParallel1(b *testing.B)      { benchmarkSweep(b, 1) }
func BenchmarkSweepParallel4(b *testing.B)      { benchmarkSweep(b, 4) }
func BenchmarkSweepParallelNumCPU(b *testing.B) { benchmarkSweep(b, runtime.NumCPU()) }
