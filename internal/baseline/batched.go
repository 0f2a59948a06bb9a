package baseline

import (
	"fmt"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/core"
	"xkblas/internal/matrix"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
	"xkblas/internal/xkrt"
)

// BatchRunner is implemented by libraries that can execute a batched
// small-GEMM-style request: many independent instances of one routine with
// per-instance shapes, routed between the host BLAS path and the tiled
// device path by the dispatch model.
type BatchRunner interface {
	RunBatched(req Request, batch blasops.Batch, mode DispatchMode) Result
}

// batchOperands registers the operands of one batch instance with their
// rectangular shapes (the shape table of operandDims) and reports the
// written matrix, which is always listed last. A sub-tile instance maps to
// a single output tile, which 2D block-cyclic distribution would home on
// device 0 for every instance of the batch — so those instances are
// re-homed round-robin onto the home device instead, spreading the batch
// across the lanes the dispatch model prices. Multi-tile instances keep
// the block-cyclic mapping.
func batchOperands(h *core.Handle, r blasops.Routine, bi blasops.BatchInstance, home topology.DeviceID) (ins []*xkrt.Matrix, out *xkrt.Matrix) {
	dims := operandDims(r, bi)
	ins = make([]*xkrt.Matrix, len(dims))
	for i, d := range dims {
		ins[i] = h.Register(matrix.NewShape(d[0], d[1]))
	}
	out = ins[len(ins)-1]
	if out.Rows() == 1 && out.Cols() == 1 {
		for _, m := range ins {
			m.EachTile(func(_, _ int, t *cache.Tile) { t.Owner = home })
		}
	}
	return ins, out
}

// submitHostInstance runs one batch instance on the host BLAS server: the
// data already lives on the host, so there is no transfer and no coherency
// write-back — just the modelled CPU execution time, serialized with other
// host calls. The barrier tracks it as an external job, like pinning.
func submitHostInstance(h *core.Handle, r blasops.Routine, bi blasops.BatchInstance) {
	hm := h.Plat.HostModel
	eff := hm.EffectiveFlops(r, bi.Flops(r), bi.M, bi.N, bi.K)
	h.RT.PendingExternal(1)
	h.Plat.Host.Submit(eff, hm.LaunchOverhead, sim.JobFunc(func(_, _ sim.Time) {
		h.RT.PendingExternal(-1)
	}))
}

// RunBatched implements BatchRunner: every instance of the batch routes to
// the host BLAS server or the tiled device path according to mode, all
// submitted up front and drained by a single sync, so the host CPU works
// under the device pipeline instead of blocking it. The measured interval
// is the batch makespan; GFlops rates the batch's total useful flops over
// it. Decisions are counted per instance in Decisions.DispatchDevice /
// DispatchHost and surface as the dispatch.* metrics.
func (l *StdLib) RunBatched(req Request, batch blasops.Batch, mode DispatchMode) (res Result) {
	if err := batch.Validate(); err != nil {
		return Result{Err: err}
	}
	if !l.Supports(batch.Routine) {
		return Result{Err: fmt.Errorf("%s does not implement %v", l.LibName, batch.Routine)}
	}
	if operandDims(batch.Routine, blasops.BatchInstance{M: 1, N: 1, K: 1}) == nil {
		return Result{Err: fmt.Errorf("baseline: batched path does not support %v", batch.Routine)}
	}
	if req.Scenario != DataOnHost {
		return Result{Err: fmt.Errorf("baseline: batched runs support the data-on-host scenario only")}
	}
	if err := req.canceled(); err != nil {
		return Result{Err: &xkrt.CanceledError{Cause: err}}
	}
	req.Routine = batch.Routine
	c, rec := l.prepare(req)
	h := c.h
	defer func() { c.release(req, res.Err) }()
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: fmt.Errorf("baseline: %v", r), Rec: rec}
		}
	}()
	defer armCancel(req, h)()
	dm := dispatchModelFor(h.Plat)
	dm.Window = h.RT.Opt.Window
	dm.NB = req.NB
	count := batch.Count()
	ngpu := len(h.Plat.GPUs)
	t0 := h.Now()
	devIdx := 0
	for _, bi := range batch.Instances {
		host := mode == DispatchHostOnly ||
			(mode == DispatchAuto && dm.UseHost(batch.Routine, bi, count))
		h.RT.CountDispatch(host)
		if host {
			submitHostInstance(h, batch.Routine, bi)
			continue
		}
		ins, out := batchOperands(h, batch.Routine, bi, topology.DeviceID(devIdx%ngpu))
		devIdx++
		submitRoutine(h, batch.Routine, ins)
		h.MemoryCoherentAsync(out)
	}
	end := h.Sync()
	if err := h.RT.Err(); err != nil {
		return Result{Err: err, Rec: rec}
	}
	el := end - t0
	gf := blasops.GFlops(batch.Flops(), float64(el))
	if rec != nil {
		rec.Decisions = h.RT.Decisions()
	}
	return Result{Elapsed: el, GFlops: gf, Rec: rec, Cache: h.RT.Cache.Stats(),
		Decisions: h.RT.Decisions(), Metrics: collectMetrics(req, h, rec)}
}
