package bench

import (
	"context"
	"errors"
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
	// Ctx, when non-nil, bounds the run: a done context starts nothing,
	// and one that fires mid-run aborts it at the current virtual time.
	Ctx context.Context
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
// size on a fresh DGX-1 context. A cancelled run's Err matches both
// xkrt.ErrCanceled and the context's error.
func RunBigNGemm(cfg BigNConfig) (res BigNResult) {
	res = BigNResult{N: cfg.N, NB: cfg.NB, Window: cfg.Window}
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		res.Err = &xkrt.CanceledError{Cause: cfg.Ctx.Err()}
		return res
	}
	opts := xkrt.DefaultOptions()
	opts.StreamWindow = cfg.Window
	h := core.NewHandle(core.Config{TileSize: cfg.NB, Options: opts, Check: cfg.Check})
	if cfg.Ctx != nil {
		// The handle is never reused, so a cancellation that lands after
		// the run returned touches nothing that matters.
		defer context.AfterFunc(cfg.Ctx, func() { h.RT.Cancel(cfg.Ctx.Err()) })()
	}
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
	res.GFlops = blasops.GFlops(blasops.FlopsSquare(blasops.Gemm, n), float64(el))
	return res
}

// bigNRow is the report row of one run.
func bigNRow(label string, r BigNResult) Row {
	return Row{Label: fmt.Sprintf("%-28s N=%-7d nb=%-5d window=%-6d", label, r.N, r.NB, r.Window),
		Format: " %8.1f GF/s  tasks=%.0f live_max=%.0f tiles_max=%.0f stalls=%.0f",
		Values: []float64{r.GFlops, float64(r.Tasks), float64(r.TasksLiveMax), float64(r.TilesLiveMax), float64(r.WindowStalls)},
		Err:    r.Err}
}

// BigN runs the beyond-paper-scale GEMM demonstration (xkbench -exp bign):
// the whole-graph reference whose peak live tasks is the entire DAG, the
// streamed run with end-of-call coherency that dies of device OOM past the
// aggregate-memory wall, and the streaming builder with interleaved flush
// that carries 1.40M tasks through a fixed window. quick shrinks the sizes
// below the device-memory wall (so the OOM leg is skipped) and keeps only
// the live-task contrast. The runs always simulate the DGX-1; of the
// caller's Config only Check and Ctx apply: once Ctx is done no further
// configuration starts, and each one left prints its ERROR line. The
// closing live-task comparison prints only when both of its runs succeeded.
func BigN(w io.Writer, run Config, quick bool) []BigNResult {
	out, _ := bigN(w, run, quick)
	return out
}

// bigN is BigN that also returns the report rows it printed.
func bigN(w io.Writer, run Config, quick bool) ([]BigNResult, []Row) {
	const nb = 2048
	const window = 4096
	rp := report{w: w}
	rp.line("Beyond-paper GEMM scale (timing mode, DGX-1)")
	rp.line("")
	var out []BigNResult
	if quick {
		r := RunBigNGemm(BigNConfig{N: 57344, NB: nb, Check: run.Check, Ctx: run.Ctx})
		rp.add(bigNRow("whole graph", r))
		out = append(out, r)
		r = RunBigNGemm(BigNConfig{N: 57344, NB: nb, Window: 1024, Check: run.Check, Ctx: run.Ctx})
		rp.add(bigNRow("streamed, interleaved flush", r))
		out = append(out, r)
		if firstErr(out[0].Err, out[1].Err) == nil {
			rp.line("")
			rp.line(fmt.Sprintf("peak live tasks: %d whole-graph vs %d streamed (bound: window = %d)",
				out[0].TasksLiveMax, out[1].TasksLiveMax, 1024))
		}
		return out, rp.rows
	}
	// Whole-graph reference at the largest size below the device-memory
	// wall: completes, but holds every task of the DAG live at once.
	r := RunBigNGemm(BigNConfig{N: 139264, NB: nb, Check: run.Check, Ctx: run.Ctx})
	rp.add(bigNRow("whole graph", r))
	out = append(out, r)
	// Streamed with end-of-call coherency at full scale: the flush pass
	// trails the generator, dirty C outgrows the pools, device OOM. The
	// error is the expected outcome and is reported, not fatal.
	r = RunBigNGemm(BigNConfig{N: 229376, NB: nb, Window: window, FlushEnd: true, Check: run.Check, Ctx: run.Ctx})
	rp.add(bigNRow("streamed, flush at end", r))
	if r.Err != nil && !errors.Is(r.Err, xkrt.ErrCanceled) {
		rp.line(fmt.Sprintf("%-28s expected: end-of-call coherency cannot bound the dirty footprint at this scale", ""))
	}
	// The streaming builder: 1.40M tasks through a fixed window with the
	// dirty footprint bounded by interleaved write-back.
	r = RunBigNGemm(BigNConfig{N: 229376, NB: nb, Window: window, Check: run.Check, Ctx: run.Ctx})
	rp.add(bigNRow("streamed, interleaved flush", r))
	out = append(out, r)
	if firstErr(out[0].Err, r.Err) == nil {
		nt := (229376 + nb - 1) / nb
		rp.line("")
		rp.line(fmt.Sprintf("streamed run: %d chains, %d compute tasks; peak live tasks %d (bound: window = %d) vs %d whole-graph at N=%d",
			nt*nt, nt*nt*nt, r.TasksLiveMax, window, out[0].TasksLiveMax, out[0].N))
	}
	return out, rp.rows
}
