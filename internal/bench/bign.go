package bench

import (
	"fmt"
	"io"

	"xkblas/internal/blasops"
	"xkblas/internal/core"
	"xkblas/internal/matrix"
	"xkblas/internal/sim"
	"xkblas/internal/xkrt"
)

// Big-N single-call runs (ROADMAP: million-task problems in one call).
//
// The paper's sweeps stop at N = 57344. Far past that, at N = 229376 /
// nb = 2048, a single GEMM is 112³ ≈ 1.40M compute tasks and its C matrix
// (420 GB) no longer fits aggregate device memory (8 × 32 GB). Two walls
// stand between the whole-graph harness and that size:
//
//  1. Task memory. The historical submission path materializes the whole
//     DAG before the first kernel runs: peak live tasks equals the task
//     count, so host memory grows with nt³. The stream window
//     (xkrt.Options.StreamWindow) removes the wall — the generator's
//     Submit loop blocks while the window is full, completed tasks
//     recycle into the arena behind it, and peak live tasks is bounded by
//     the window regardless of N.
//
//  2. Device memory. A streamed run must also interleave coherency:
//     MemoryCoherentAsync's end-of-call flush pass is not even submitted
//     until the generator has drained, so dirty C tiles — which can
//     neither be evicted nor reclaimed — accumulate at the rate chains
//     finish and the run dies of device OOM once they outgrow the pools
//     (C > 256 GB aggregate, i.e. N > 185363). GemmFlushAsync schedules
//     each C tile's write-back right after its k-chain instead: tiles
//     turn clean (hence evictable) as they finish and the dirty footprint
//     stays bounded by the chains still accumulating inside the window.
//
// RunBigNGemm drives one timing-mode GEMM in any of these configurations;
// the BigN experiment (xkbench -exp bign, make bench-bigN) runs all three
// and reports the live-task and live-tile high-water marks that certify
// the documented bound: streamed peak live tasks ≤ window, where the
// whole-graph path measures the full DAG.

// BigNConfig describes one big-N GEMM run.
type BigNConfig struct {
	N, NB int
	// Window is the stream admission window in tasks; 0 submits the
	// whole graph up front (the historical behavior, whose peak live
	// tasks is the entire DAG).
	Window int
	// Check runs the GEMM under the coherence-invariant auditor.
	Check bool
	// FlushEnd uses the end-of-call coherency pass instead of the
	// interleaved per-tile flush — with a stream window, the
	// configuration that exhausts device memory once C outgrows it.
	FlushEnd bool
}

// BigNResult is one big-N run outcome with the memory high-water marks.
type BigNResult struct {
	N, NB, Window int
	Tasks         int64 // tasks retired (compute + coherency)
	Elapsed       sim.Time
	GFlops        float64
	TasksLiveMax  int   // peak simultaneously live tasks
	TilesLiveMax  int   // peak live tile records in the cache arena
	WindowStalls  int64 // submissions that waited for window room
	Err           error
}

// RunBigNGemm executes one timing-mode GEMM (C = A·B + C) at the given
// size on a fresh DGX-1 context.
func RunBigNGemm(cfg BigNConfig) (res BigNResult) {
	res = BigNResult{N: cfg.N, NB: cfg.NB, Window: cfg.Window}
	opts := xkrt.DefaultOptions()
	opts.StreamWindow = cfg.Window
	h := core.NewHandle(core.Config{TileSize: cfg.NB, Options: opts, Check: cfg.Check})
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("bign: %v", r)
		}
	}()
	n := cfg.N
	a := h.Register(matrix.NewShape(n, n))
	b := h.Register(matrix.NewShape(n, n))
	c := h.Register(matrix.NewShape(n, n))
	t0 := h.Now()
	if cfg.FlushEnd {
		h.GemmAsync(core.NoTrans, core.NoTrans, 1, a, b, 1, c)
		h.MemoryCoherentAsync(c)
	} else {
		h.GemmFlushAsync(core.NoTrans, core.NoTrans, 1, a, b, 1, c)
	}
	end := h.Sync()
	res.Tasks = h.RT.Stats().TasksRun
	res.TasksLiveMax = h.RT.TasksLiveMax()
	res.TilesLiveMax = h.RT.Cache.TilesLiveMax()
	res.WindowStalls = h.RT.WindowStalls()
	if err := h.RT.Err(); err != nil {
		res.Err = err
		return res
	}
	el := end - t0
	res.Elapsed = el
	res.GFlops = bigNGflops(blasops.Gemm, n, el)
	return res
}

// bigNGflops converts a virtual duration into GFlop/s (square problem).
func bigNGflops(r blasops.Routine, n int, d sim.Time) float64 {
	return blasops.GFlops(blasops.FlopsSquare(r, n), float64(d))
}

// bigNLine renders one run for the report.
func bigNLine(w io.Writer, label string, r BigNResult) {
	if r.Err != nil {
		fmt.Fprintf(w, "%-28s N=%-7d nb=%-5d window=%-6d ERROR: %v\n",
			label, r.N, r.NB, r.Window, r.Err)
		return
	}
	fmt.Fprintf(w, "%-28s N=%-7d nb=%-5d window=%-6d %8.1f GF/s  tasks=%d live_max=%d tiles_max=%d stalls=%d\n",
		label, r.N, r.NB, r.Window, r.GFlops,
		r.Tasks, r.TasksLiveMax, r.TilesLiveMax, r.WindowStalls)
}

// BigN runs the beyond-paper-scale GEMM demonstration (xkbench -exp bign):
// the whole-graph reference whose peak live tasks is the entire DAG, the
// streamed run with end-of-call coherency that dies of device OOM past the
// aggregate-memory wall, and the streaming builder with interleaved flush
// that carries 1.40M tasks through a fixed window. quick shrinks the sizes
// below the device-memory wall (so the OOM leg is skipped) and keeps only
// the live-task contrast. The runs always simulate the DGX-1; of the
// caller's Config only Check applies.
func BigN(w io.Writer, run Config, quick bool) []BigNResult {
	const nb = 2048
	const window = 4096
	fmt.Fprintf(w, "Beyond-paper GEMM scale (timing mode, DGX-1)\n\n")
	var out []BigNResult
	if quick {
		r := RunBigNGemm(BigNConfig{N: 57344, NB: nb, Check: run.Check})
		bigNLine(w, "whole graph", r)
		out = append(out, r)
		r = RunBigNGemm(BigNConfig{N: 57344, NB: nb, Window: 1024, Check: run.Check})
		bigNLine(w, "streamed, interleaved flush", r)
		out = append(out, r)
		fmt.Fprintf(w, "\npeak live tasks: %d whole-graph vs %d streamed (bound: window = %d)\n",
			out[0].TasksLiveMax, out[1].TasksLiveMax, 1024)
		return out
	}
	// Whole-graph reference at the largest size below the device-memory
	// wall: completes, but holds every task of the DAG live at once.
	r := RunBigNGemm(BigNConfig{N: 139264, NB: nb, Check: run.Check})
	bigNLine(w, "whole graph", r)
	out = append(out, r)
	// Streamed with end-of-call coherency at full scale: the flush pass
	// trails the generator, dirty C outgrows the pools, device OOM. The
	// error is the expected outcome and is reported, not fatal.
	r = RunBigNGemm(BigNConfig{N: 229376, NB: nb, Window: window, FlushEnd: true, Check: run.Check})
	bigNLine(w, "streamed, flush at end", r)
	if r.Err != nil {
		fmt.Fprintf(w, "%-28s expected: end-of-call coherency cannot bound the dirty footprint at this scale\n", "")
	}
	// The streaming builder: 1.40M tasks through a fixed window with the
	// dirty footprint bounded by interleaved write-back.
	r = RunBigNGemm(BigNConfig{N: 229376, NB: nb, Window: window, Check: run.Check})
	bigNLine(w, "streamed, interleaved flush", r)
	out = append(out, r)
	nt := (229376 + nb - 1) / nb
	fmt.Fprintf(w, "\nstreamed run: %d chains, %d compute tasks; peak live tasks %d (bound: window = %d) vs %d whole-graph at N=%d\n",
		nt*nt, nt*nt*nt, r.TasksLiveMax, window, out[0].TasksLiveMax, out[0].N)
	return out
}
