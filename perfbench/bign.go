package main

import (
	"fmt"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
	"xkblas/internal/core"
	"xkblas/internal/matrix"
	"xkblas/internal/topology"
	"xkblas/internal/xkrt"
)

// bign-stream: one timing-mode XKBlas GEMM with interleaved flush, streamed
// through the admission window, as bench.RunBigNGemm runs it. C is
// bigNSize² doubles (284 GB), past the 256 GB the eight GPUs hold, so the
// run only completes because written tiles flush and get evicted.
const (
	bigNSize   = 188416
	bigNTile   = 4096
	bigNWindow = 4096
)

type bigNRun struct {
	h        *core.Handle
	n        int
	amp      float64 // kernel-noise amplitude
	noiseMix int64
}

func setupBigN(seed int64, tr *tracer) (runner, error) {
	return newBigN(seed, bigNSize, tr)
}

// newBigN builds the platform and the handle, and sizes the handle's task
// and tile arenas with a discarded warm-up GEMM; the measured iterations
// then run on the reset handle.
func newBigN(seed int64, n int, tr *tracer) (*bigNRun, error) {
	id := tr.begin("topology.Build")
	plat := topology.DGX1()
	tr.end(id)
	id = tr.begin("core.NewHandle")
	h := core.NewHandle(core.Config{Platform: plat, TileSize: bigNTile, Options: bigNOptions()})
	tr.end(id)
	b := &bigNRun{h: h, n: n, amp: sweepNoiseAmp, noiseMix: mixSeed(seed)}
	if _, err := b.gemm(h, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

func bigNOptions() xkrt.Options {
	opts := xkrt.DefaultOptions()
	opts.StreamWindow = bigNWindow
	return opts
}

// gemm runs the streamed GEMM on h and returns its simulated
// elapsed seconds. With a stream window the submission itself drives the
// event loop whenever the window is full, so core.Submit holds event-loop
// time as well as DAG construction.
func (b *bigNRun) gemm(h *core.Handle, tr *tracer) (el float64, err error) {
	depth := tr.depth()
	defer func() {
		if r := recover(); r != nil {
			tr.unwind(depth)
			err = fmt.Errorf("%v", r)
		}
	}()
	h.Plat.Model.EnableNoise(b.amp, b.noiseMix)
	id := tr.begin("core.Submit")
	a := h.Register(matrix.NewShape(b.n, b.n))
	bm := h.Register(matrix.NewShape(b.n, b.n))
	c := h.Register(matrix.NewShape(b.n, b.n))
	t0 := h.Now()
	h.GemmFlushAsync(core.NoTrans, core.NoTrans, 1, a, bm, 1, c)
	tr.end(id)
	id = tr.begin("core.Sync")
	end := h.Sync()
	tr.end(id)
	if err := h.RT.Err(); err != nil {
		return 0, err
	}
	return float64(end - t0), nil
}

func (b *bigNRun) iterate(tr *tracer) outcome {
	out := outcome{attempted: 1}
	b.h.Reset()
	el, err := b.gemm(b.h, tr)
	if err != nil {
		out.fail("GEMM N=%d: %v", b.n, err)
		return out
	}
	out.work = float64(b.h.RT.Stats().TasksRun)
	out.model = model{
		TFlops:     blasops.GFlops(blasops.FlopsSquare(blasops.Gemm, b.n), el) / 1000,
		ServedFrac: 1,
		P50:        el,
		P99:        el,
		P50N:       1,
		P99N:       1,
		LatNote:    "one streamed GEMM, simulated elapsed",
	}
	if tr != nil {
		id := tr.begin("xkrt.CollectMetrics")
		snap := b.h.RT.CollectMetrics()
		tr.end(id)
		var c simCounts
		c.addHandle(b.h, snap, el)
		c.addResult(baseline.Result{Cache: b.h.RT.Cache.Stats(), Decisions: b.h.RT.Decisions()})
		out.layer = make(map[string]float64)
		c.publish(out.layer)
	}
	return out
}

// audit runs the same GEMM on a fresh handle under the auditor.
func (b *bigNRun) audit() error {
	opts := core.Config{Platform: topology.DGX1(), TileSize: bigNTile, Options: bigNOptions(), Check: true}
	_, err := b.gemm(core.NewHandle(opts), nil)
	return err
}
