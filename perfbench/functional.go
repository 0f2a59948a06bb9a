package main

import (
	"fmt"
	"math/rand"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
	"xkblas/internal/core"
	"xkblas/internal/hostblas"
	"xkblas/internal/matrix"
	"xkblas/internal/topology"
	"xkblas/internal/xkrt"
)

// functional-check: the six real routines in functional mode (real float64
// tiles) on the DGX-1 under the XKBlas policy bundle, each output compared
// with the hostblas reference computed during set-up.
const (
	funcSize = 256
	funcTile = 32
)

// funcCall is one routine call: the tiled call on the handle and the same
// call on the hostblas reference, with its operands.
type funcCall struct {
	r     blasops.Routine
	a, b  matrix.View // inputs; b is empty for SYRK, TRMM and TRSM
	c0    matrix.View // initial value of the output operand
	want  matrix.View // reference result
	tol   float64     // max abs difference accepted, as in xkverify
	tiled func(h *core.Handle, a, b, c *xkrt.Matrix)
	ref   func(out matrix.View)
}

type funcRun struct {
	plat     *topology.Platform
	opts     xkrt.Options
	h        *core.Handle
	calls    []funcCall
	noiseMix int64
}

func setupFunctional(seed int64, tr *tracer) (runner, error) {
	id := tr.begin("topology.Build")
	plat := topology.DGX1()
	tr.end(id)
	rng := rand.New(rand.NewSource(seed))
	random := func() matrix.View {
		v := matrix.New(funcSize, funcSize)
		v.FillRandom(rng)
		return v
	}
	a, b, c := random(), random(), random()
	tri := matrix.New(funcSize, funcSize)
	tri.FillIdentityPlus(funcSize+4, rng)
	al, be := 2*rng.Float64()-1, 2*rng.Float64()-1
	const (
		nt, lo, left, nonUnit = core.NoTrans, core.Lower, core.Left, core.NonUnit
	)

	calls := []funcCall{
		{r: blasops.Gemm, a: a, b: b, c0: c, tol: 1e-9,
			tiled: func(h *core.Handle, A, B, C *xkrt.Matrix) { h.GemmAsync(nt, nt, al, A, B, be, C) },
			ref:   func(out matrix.View) { hostblas.Gemm(nt, nt, al, a, b, be, out) }},
		{r: blasops.Symm, a: a, b: b, c0: c, tol: 1e-9,
			tiled: func(h *core.Handle, A, B, C *xkrt.Matrix) { h.SymmAsync(left, lo, al, A, B, be, C) },
			ref:   func(out matrix.View) { hostblas.Symm(left, lo, al, a, b, be, out) }},
		{r: blasops.Syrk, a: a, c0: c, tol: 1e-9,
			tiled: func(h *core.Handle, A, _, C *xkrt.Matrix) { h.SyrkAsync(lo, nt, al, A, be, C) },
			ref:   func(out matrix.View) { hostblas.Syrk(lo, nt, al, a, be, out) }},
		{r: blasops.Syr2k, a: a, b: b, c0: c, tol: 1e-9,
			tiled: func(h *core.Handle, A, B, C *xkrt.Matrix) { h.Syr2kAsync(lo, nt, al, A, B, be, C) },
			ref:   func(out matrix.View) { hostblas.Syr2k(lo, nt, al, a, b, be, out) }},
		{r: blasops.Trmm, a: tri, c0: b, tol: 1e-8,
			tiled: func(h *core.Handle, A, _, B *xkrt.Matrix) { h.TrmmAsync(left, lo, nt, nonUnit, al, A, B) },
			ref:   func(out matrix.View) { hostblas.Trmm(left, lo, nt, nonUnit, al, tri, out) }},
		{r: blasops.Trsm, a: tri, c0: b, tol: 1e-7,
			tiled: func(h *core.Handle, A, _, B *xkrt.Matrix) { h.TrsmAsync(left, lo, nt, nonUnit, al, A, B) },
			ref:   func(out matrix.View) { hostblas.Trsm(left, lo, nt, nonUnit, al, tri, out) }},
	}
	for i := range calls {
		fc := &calls[i]
		fc.want = fc.c0.Clone()
		id := tr.begin("hostblas.Reference")
		fc.ref(fc.want)
		tr.end(id)
	}

	f := &funcRun{plat: plat, opts: baseline.XKBlas().(*baseline.StdLib).Opts, calls: calls, noiseMix: mixSeed(seed)}
	id = tr.begin("core.NewHandle")
	f.h = f.newHandle(false)
	tr.end(id)
	return f, nil
}

func (f *funcRun) newHandle(check bool) *core.Handle {
	return core.NewHandle(core.Config{Platform: f.plat, TileSize: funcTile, Functional: true, Options: f.opts, Check: check})
}

// refGFlop is the work of the reference calls.
func (f *funcRun) refGFlop() float64 {
	total := 0.0
	for _, fc := range f.calls {
		total += blasops.FlopsSquare(fc.r, funcSize)
	}
	return total / 1e9
}

// run executes every call on h, checking each output, and returns the
// simulated elapsed seconds of each call.
func (f *funcRun) run(h *core.Handle, tr *tracer, out *outcome) (elapsed []float64) {
	h.Plat.Model.EnableNoise(sweepNoiseAmp, f.noiseMix)
	for _, fc := range f.calls {
		out.attempted++
		el, diff, err := f.call(h, tr, fc)
		switch {
		case err != nil:
			out.fail("%v: %v", fc.r, err)
		case diff > fc.tol:
			out.fail("%v: max abs difference %g from the hostblas reference exceeds %g", fc.r, diff, fc.tol)
		default:
			out.work += blasops.FlopsSquare(fc.r, funcSize) / 1e9
			elapsed = append(elapsed, el)
		}
	}
	return elapsed
}

func (f *funcRun) call(h *core.Handle, tr *tracer, fc funcCall) (el, diff float64, err error) {
	depth := tr.depth()
	defer func() {
		if r := recover(); r != nil {
			tr.unwind(depth)
			err = fmt.Errorf("%v", r)
		}
	}()
	c := fc.c0.Clone()
	id := tr.begin("core.Submit")
	A, C := h.Register(fc.a), h.Register(c)
	var B *xkrt.Matrix
	if fc.b.HasData() {
		B = h.Register(fc.b)
	}
	t0 := h.Now()
	fc.tiled(h, A, B, C)
	h.MemoryCoherentAsync(C)
	tr.end(id)
	id = tr.begin("core.Sync")
	end := h.Sync()
	tr.end(id)
	if err := h.RT.Err(); err != nil {
		return 0, 0, err
	}
	return float64(end - t0), matrix.MaxAbsDiff(c, fc.want), nil
}

func (f *funcRun) iterate(tr *tracer) outcome {
	var out outcome
	f.h.Reset()
	elapsed := f.run(f.h, tr, &out)
	total := sum(elapsed)
	out.model = model{
		TFlops:     ratio(out.work, total) / 1000,
		ServedFrac: ratio(float64(out.attempted-out.failed), float64(out.attempted)),
		P50:        quantile(elapsed, 0.5),
		P99:        quantile(elapsed, 0.99),
		P50N:       len(elapsed),
		P99N:       len(elapsed),
		LatNote:    "routine calls, simulated elapsed",
	}
	if tr != nil {
		id := tr.begin("xkrt.CollectMetrics")
		snap := f.h.RT.CollectMetrics()
		tr.end(id)
		var c simCounts
		c.addHandle(f.h, snap, total)
		c.addResult(baseline.Result{Cache: f.h.RT.Cache.Stats(), Decisions: f.h.RT.Decisions()})
		out.layer = map[string]float64{"hostblas.ref_gflop": f.refGFlop()}
		c.publish(out.layer)
	}
	return out
}

// audit runs every call once more on a fresh handle under the auditor.
func (f *funcRun) audit() error {
	var out outcome
	f.run(f.newHandle(true), nil, &out)
	if len(out.problems) > 0 {
		return fmt.Errorf("%s", out.problems[0])
	}
	return nil
}
