// Package baseline reimplements the scheduling and data-movement policies
// of the seven libraries the paper compares against XKBLAS (§IV): BLASX,
// cuBLAS-XT, cuBLAS-MG, Chameleon/StarPU (Tile and LAPACK), SLATE and
// DPLASMA/PaRSEC — plus the XKBLAS variants of the Fig. 3 ablation.
//
// All libraries execute the same tile kernels on the same simulated DGX-1,
// so measured differences come purely from runtime policy, mirroring the
// paper's experimental isolation (every real library ultimately calls
// cuBLAS kernels). Each policy is expressed through the shared xkrt runtime
// (source restrictions, scheduler, pipeline depth, flush discipline) plus,
// where the real library's structure demands it, a custom driver (SLATE's
// panel-synchronous block outer product, cuBLAS-MG's included
// distribution, Chameleon LAPACK's layout conversions).
package baseline

import (
	"context"
	"fmt"
	"sync"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/core"
	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/metrics"
	"xkblas/internal/policy"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
	"xkblas/internal/trace"
	"xkblas/internal/xkrt"
)

// Scenario selects the paper's two methodologies (§IV-A).
type Scenario int

const (
	// DataOnHost measures end-to-end: operand upload and result
	// write-back are inside the timed interval.
	DataOnHost Scenario = iota
	// DataOnDevice distributes operands 2D block-cyclically before timing
	// starts; results stay on device (§IV-C).
	DataOnDevice
)

func (s Scenario) String() string {
	if s == DataOnDevice {
		return "data-on-device"
	}
	return "data-on-host"
}

// Request describes one measurement.
type Request struct {
	Routine  blasops.Routine
	N        int // square problem dimension
	NB       int // tile size
	Scenario Scenario

	// Platform defaults to the 8-GPU DGX-1.
	Platform *topology.Platform

	// Links selects the interconnect contention model (FIFO default).
	Links device.LinkModel

	// NoiseAmp/NoiseSeed add deterministic kernel-time jitter so repeated
	// "runs" (different seeds) yield the paper's error bars.
	NoiseAmp  float64
	NoiseSeed int64

	// Trace attaches a recorder (Figs. 6, 7, 9).
	Trace bool

	// Check attaches the strict coherence-invariant auditor to the run
	// (xkbench -check): any protocol violation surfaces as Result.Err.
	Check bool

	// Metrics, when true, collects the run's full utilization snapshot
	// (resource occupancy, link-class traffic, cache and scheduler
	// counters) into Result.Metrics. Off, the run does no collection and
	// produces output byte-identical to a metrics-free build.
	Metrics bool

	// Ctx, when non-nil, bounds the run: once it is cancelled (deadline or
	// signal) the simulation aborts at the current virtual time and
	// Result.Err carries xkrt.ErrCanceled wrapping the context error. A nil
	// Ctx (and a never-cancelled one) leaves the run bit-identical to a
	// context-free run.
	Ctx context.Context

	// StreamWindow, when positive, bounds the number of live tasks in the
	// runtime (xkrt.Options.StreamWindow): the DAG streams through the
	// window instead of materializing whole. 0 keeps the historical
	// whole-graph submission.
	StreamWindow int
}

// canceled reports the request's context error (nil for a nil or live
// context).
func (req Request) canceled() error {
	if req.Ctx == nil {
		return nil
	}
	return req.Ctx.Err()
}

// Result is one measurement outcome.
type Result struct {
	Elapsed sim.Time
	GFlops  float64
	Rec     *trace.Recorder
	Cache   cache.Stats
	// Decisions counts the policy-layer choices (transfer sources by link
	// class, optimistic chains, evictions, steals) taken during the run.
	Decisions policy.Decisions
	// Metrics is the deterministic utilization snapshot (nil unless
	// Request.Metrics was set).
	Metrics metrics.Snapshot
	Err     error
}

// collectMetrics gathers the handle's utilization snapshot when the request
// asked for one (nil otherwise). The trace recorder's per-GPU occupancy
// rides along when tracing is active.
func collectMetrics(req Request, h *core.Handle, rec *trace.Recorder) metrics.Snapshot {
	if !req.Metrics {
		return nil
	}
	if rec != nil {
		rec.PublishMetrics(h.RT.Registry(), len(h.Plat.GPUs))
	}
	return h.RT.CollectMetrics()
}

// Library is a multi-GPU BLAS implementation under test.
type Library interface {
	Name() string
	Supports(r blasops.Routine) bool
	Run(req Request) Result
}

// Composer is implemented by libraries that can run the TRSM+GEMM
// composition benchmark of §IV-F.
type Composer interface {
	RunComposition(req Request) Result
}

// idle holds the process's idle timing-mode library contexts, shared by
// every library, point and caller. It is the package's only mutable state:
// it holds no configuration, and it cannot change a result, because a
// reset context reproduces a freshly built one bit for bit
// (TestHandlePoolRunsBitIdentical). The garbage collector may empty it at
// any time; a run that finds nothing to reuse builds a context.
var idle sync.Pool

// simContext is one timing-mode library context — engine, platform,
// runtime and their arenas — with the request key it was built for.
type simContext struct {
	h     *core.Handle
	plat  *topology.Platform // the request's Platform; nil is the default DGX-1
	links device.LinkModel
}

// acquire returns a context for req shaped as opts and reserve: an idle
// context built for the same platform pointer and link model, reset, or
// else a fresh build. Options and the memory reservation take the same
// path either way (xkrt.Runtime.SetOptions, device.Platform.ReserveMemory),
// as does kernel noise, which a zero amplitude disarms. Check runs never
// reuse: the auditor is attached at build time and must observe the
// context's whole life.
func acquire(req Request, opts xkrt.Options, reserve float64) *simContext {
	if req.StreamWindow > 0 {
		opts.StreamWindow = req.StreamWindow
	}
	var c *simContext
	if !req.Check {
		// An idle context built for another key is dropped, never reused.
		if v, _ := idle.Get().(*simContext); v != nil && v.plat == req.Platform && v.links == req.Links {
			c = v
		}
	}
	if c != nil {
		c.h.Reset()
		c.h.NB = req.NB
		c.h.RT.SetOptions(opts)
	} else {
		plat := req.Platform
		if plat == nil {
			plat = topology.DGX1()
		}
		h := core.NewHandle(core.Config{Platform: plat, TileSize: req.NB, Options: opts, Links: req.Links, Check: req.Check})
		c = &simContext{h: h, plat: req.Platform, links: req.Links}
	}
	c.h.Plat.ReserveMemory(reserve)
	c.h.Plat.Model.EnableNoise(req.NoiseAmp, req.NoiseSeed)
	return c
}

// release returns the context of a clean run to the idle pool. Failed or
// cancelled runs drop theirs (they may hold stranded tasks), and so do
// Check runs.
func (c *simContext) release(req Request, err error) {
	if err != nil || req.Check {
		return
	}
	idle.Put(c)
}

// armCancel connects the request's context to the handle's runtime: a
// watchdog goroutine cancels the run (aborting the engine at the current
// virtual time) the moment the context is done. The returned release func
// must be deferred by the caller — it reaps the watchdog when the run
// completes first. With no cancellable context this is a no-op: no
// goroutine is spawned and the simulation is untouched.
func armCancel(req Request, h *core.Handle) (release func()) {
	ctx := req.Ctx
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	if err := ctx.Err(); err != nil {
		h.RT.Cancel(err)
		return func() {}
	}
	stop := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			h.RT.Cancel(ctx.Err())
		case <-stop:
		}
	}()
	// Waiting for the watchdog (not merely signalling it) guarantees the
	// handle is untouched after release returns — a must once handles are
	// pooled and the next run may pick this one up.
	return func() { close(stop); <-exited }
}

// attachTrace wires a recorder into the handle when requested.
func attachTrace(h *core.Handle, req Request) *trace.Recorder {
	if !req.Trace {
		return nil
	}
	rec := trace.NewRecorder()
	h.RT.Cache.Observer = rec
	h.RT.Obs = rec
	return rec
}

// operands builds the shape-only matrices of a square-N routine invocation
// and reports which matrix the routine writes.
func operands(h *core.Handle, r blasops.Routine, n int) (ins []*xkrt.Matrix, out *xkrt.Matrix) {
	reg := func() *xkrt.Matrix { return h.Register(matrix.NewShape(n, n)) }
	switch r {
	case blasops.Gemm, blasops.Symm, blasops.Syr2k:
		a, b, c := reg(), reg(), reg()
		return []*xkrt.Matrix{a, b, c}, c
	case blasops.Syrk:
		a, c := reg(), reg()
		return []*xkrt.Matrix{a, c}, c
	case blasops.Trmm, blasops.Trsm:
		a, b := reg(), reg()
		return []*xkrt.Matrix{a, b}, b
	default:
		panic(fmt.Sprintf("baseline: unknown routine %v", r))
	}
}

// submitRoutine issues the tile tasks of one routine call on the handle.
// alpha/beta are fixed representative scalars; the operand count follows
// the routine signature.
func submitRoutine(h *core.Handle, r blasops.Routine, ms []*xkrt.Matrix) {
	const alpha, beta = 1.0, 1.0
	switch r {
	case blasops.Gemm:
		h.GemmAsync(core.NoTrans, core.NoTrans, alpha, ms[0], ms[1], beta, ms[2])
	case blasops.Symm:
		h.SymmAsync(core.Left, core.Lower, alpha, ms[0], ms[1], beta, ms[2])
	case blasops.Syr2k:
		h.Syr2kAsync(core.Lower, core.NoTrans, alpha, ms[0], ms[1], beta, ms[2])
	case blasops.Syrk:
		h.SyrkAsync(core.Lower, core.NoTrans, alpha, ms[0], beta, ms[1])
	case blasops.Trmm:
		h.TrmmAsync(core.Left, core.Lower, core.NoTrans, core.NonUnit, alpha, ms[0], ms[1])
	case blasops.Trsm:
		h.TrsmAsync(core.Left, core.Lower, core.NoTrans, core.NonUnit, alpha, ms[0], ms[1])
	default:
		panic(fmt.Sprintf("baseline: unknown routine %v", r))
	}
}

// gflops converts a virtual duration into the paper's GFlop/s metric for
// one square-N routine call (thin wrapper over the shared blasops helper).
func gflops(r blasops.Routine, n int, d sim.Time) float64 {
	return blasops.GFlops(blasops.FlopsSquare(r, n), float64(d))
}

// runStandard executes the common measurement protocol on a prepared
// handle: DataOnHost times submit→coherent(out)→sync; DataOnDevice
// distributes first, then times submit→sync (results stay resident).
func runStandard(h *core.Handle, req Request, rec *trace.Recorder) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: fmt.Errorf("baseline: %v", r), Rec: rec}
		}
	}()
	defer armCancel(req, h)()
	ins, out := operands(h, req.Routine, req.N)
	if req.Scenario == DataOnDevice {
		p, q := 4, 2
		if n := len(h.Plat.GPUs); n != 8 {
			p, q = n, 1
		}
		for _, m := range ins {
			h.Distribute2DBlockCyclicAsync(m, p, q)
		}
		h.Sync()
		if rec != nil {
			rec.Reset() // distribution is outside the measured interval
		}
	}
	t0 := h.Now()
	submitRoutine(h, req.Routine, ins)
	if req.Scenario == DataOnHost {
		h.MemoryCoherentAsync(out)
	}
	end := h.Sync()
	if err := h.RT.Err(); err != nil {
		return Result{Err: err, Rec: rec}
	}
	el := end - t0
	if rec != nil {
		rec.Decisions = h.RT.Decisions()
	}
	return Result{
		Elapsed:   el,
		GFlops:    gflops(req.Routine, req.N, el),
		Rec:       rec,
		Cache:     h.RT.Cache.Stats(),
		Decisions: h.RT.Decisions(),
		Metrics:   collectMetrics(req, h, rec),
	}
}

// StdLib is a library whose behaviour is fully captured by a runtime policy
// configuration.
type StdLib struct {
	LibName  string
	Routines []blasops.Routine
	Opts     xkrt.Options

	// MemReserve shrinks usable GPU memory by the given fraction,
	// modelling allocator overheads such as BLASX's duplicated two-level
	// cache (whose public code reports allocation errors past N≈45000 in
	// Fig. 5).
	MemReserve float64

	// ConvertGBs, when positive, charges a host-side layout conversion of
	// every operand before the call and of the output after it, at the
	// given bandwidth — the Chameleon LAPACK penalty (§IV-D).
	ConvertGBs float64

	// InterCallBarrier forces coherency + a full barrier between composed
	// calls (synchronous-semantics libraries, Fig. 9's gaps).
	InterCallBarrier bool
}

// Name implements Library.
func (l *StdLib) Name() string { return l.LibName }

// Supports implements Library.
func (l *StdLib) Supports(r blasops.Routine) bool {
	for _, s := range l.Routines {
		if s == r {
			return true
		}
	}
	return false
}

// prepare acquires a context with the library's policy and memory
// reservation applied.
func (l *StdLib) prepare(req Request) (*simContext, *trace.Recorder) {
	c := acquire(req, l.Opts, l.MemReserve)
	return c, attachTrace(c.h, req)
}

// Run implements Library.
func (l *StdLib) Run(req Request) Result {
	if !l.Supports(req.Routine) {
		return Result{Err: fmt.Errorf("%s does not implement %v", l.LibName, req.Routine)}
	}
	if err := req.canceled(); err != nil {
		return Result{Err: &xkrt.CanceledError{Cause: err}}
	}
	c, rec := l.prepare(req)
	res := runStandard(c.h, req, rec)
	c.release(req, res.Err)
	if l.ConvertGBs > 0 {
		res = l.addConversionCost(req, res)
	}
	return res
}

// addConversionCost charges LAPACK↔tile layout conversions on the host:
// every operand converts in, the written operand converts back out,
// serialized on the host memory system before/after the GPU section.
func (l *StdLib) addConversionCost(req Request, res Result) Result {
	if res.Err != nil {
		return res
	}
	bytes := float64(req.N) * float64(req.N) * matrix.WordSize
	nOperands := 3
	if req.Routine == blasops.Syrk || req.Routine == blasops.Trmm || req.Routine == blasops.Trsm {
		nOperands = 2
	}
	conv := sim.Time((float64(nOperands) + 1) * bytes / (l.ConvertGBs * 1e9))
	res.Elapsed += conv
	res.GFlops = gflops(req.Routine, req.N, res.Elapsed)
	return res
}

// RunComposition implements Composer: TRSM(L,B in place) then GEMM
// (D += B·C), with this library's inter-call semantics.
func (l *StdLib) RunComposition(req Request) (res Result) {
	if err := req.canceled(); err != nil {
		return Result{Err: &xkrt.CanceledError{Cause: err}}
	}
	c, rec := l.prepare(req)
	h := c.h
	defer func() { c.release(req, res.Err) }()
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: fmt.Errorf("baseline: %v", r), Rec: rec}
		}
	}()
	defer armCancel(req, h)()
	n := req.N
	A := h.Register(matrix.NewShape(n, n))
	B := h.Register(matrix.NewShape(n, n))
	C := h.Register(matrix.NewShape(n, n))
	D := h.Register(matrix.NewShape(n, n))
	t0 := h.Now()
	h.TrsmAsync(core.Left, core.Lower, core.NoTrans, core.NonUnit, 1, A, B)
	if l.InterCallBarrier {
		h.MemoryCoherentAsync(B)
		h.Sync()
	}
	h.GemmAsync(core.NoTrans, core.NoTrans, 1, B, C, 1, D)
	h.MemoryCoherentAsync(B)
	h.MemoryCoherentAsync(D)
	end := h.Sync()
	if err := h.RT.Err(); err != nil {
		return Result{Err: err, Rec: rec}
	}
	el := end - t0
	flops := blasops.FlopsSquare(blasops.Trsm, n) + blasops.FlopsSquare(blasops.Gemm, n)
	gf := blasops.GFlops(flops, float64(el))
	if rec != nil {
		rec.Decisions = h.RT.Decisions()
	}
	return Result{Elapsed: el, GFlops: gf, Rec: rec, Cache: h.RT.Cache.Stats(),
		Decisions: h.RT.Decisions(), Metrics: collectMetrics(req, h, rec)}
}
