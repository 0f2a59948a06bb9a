package main

import (
	"fmt"
	"math"

	"xkblas/internal/baseline"
	"xkblas/internal/bench"
	"xkblas/internal/blasops"
	"xkblas/internal/core"
	"xkblas/internal/matrix"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
	"xkblas/internal/xkrt"
)

// paper-sweep: the timing-mode DGX-1 sweep behind the paper's Fig. 3 and
// Table II, through bench.MeasurePoint (best tile over {1024, 2048, 4096}
// after a discarded warm-up). N = 16384 defines Table II.

var (
	sweepSizes    = []int{8192, 16384}
	sweepRoutines = []blasops.Routine{blasops.Gemm, blasops.Syr2k, blasops.Trsm}
)

// sweepNoiseAmp is the kernel-time jitter of the xkbench sweeps.
const sweepNoiseAmp = 0.02

// paperTable2 is the paper's Table II in percent: per routine (GEMM, SYR2K,
// TRSM) the data-on-device gain and the no-heuristic and no-heuristic,
// no-topo losses against full XKBlas.
var paperTable2 = [3][3]float64{
	{111.7, -43.5, -43},
	{71.1, -19.4, -53.5},
	{52.6, -29.6, -29.3},
}

// replicaSpan wraps the traced pass's core-driven replay of a leaf run. Its
// CPU time is excluded from the tracing overhead.
const replicaSpan = "perfbench.replica"

// sweepLib wraps a library so that the seed reaches every leaf's kernel-
// noise seed and each Library.Run call is counted, checked and traced.
type sweepLib struct {
	baseline.Library
	key string // per-layer metric key
	dod bool   // measured data-on-device
	s   *sweepRun
}

func (l *sweepLib) Run(req baseline.Request) baseline.Result {
	req.NoiseSeed ^= l.s.noiseMix
	id := l.s.tr.begin("baseline.Run/" + l.key)
	res := l.Library.Run(req)
	l.s.tr.end(id)
	l.s.leaf(l, req, res)
	return res
}

type sweepRun struct {
	plat     *topology.Platform
	libs     []*sweepLib
	sizes    []int
	routines []blasops.Routine
	noiseMix int64

	// Per-iteration state.
	tr      *tracer
	out     *outcome
	latency []float64
	counts  *simCounts
}

func setupSweep(seed int64, tr *tracer) (runner, error) {
	id := tr.begin("topology.Build")
	plat := topology.DGX1()
	tr.end(id)
	s := newSweep(seed, plat, sweepSizes)
	// The discarded warm-up: every point of the smallest size, untraced.
	var warm outcome
	s.measure(nil, &warm, s.sizes[:1])
	if len(warm.problems) > 0 {
		return nil, fmt.Errorf("warm-up: %s", warm.problems[0])
	}
	return s, nil
}

// newSweep builds the sweep's library roster over plat.
func newSweep(seed int64, plat *topology.Platform, sizes []int) *sweepRun {
	s := &sweepRun{plat: plat, sizes: sizes, routines: sweepRoutines, noiseMix: mixSeed(seed)}
	s.add("xkblas", baseline.XKBlas(), false)
	s.add("xkblas_dod", baseline.XKBlas(), true)
	s.add("xkblas_noheur", baseline.XKBlasNoHeuristic(), false)
	s.add("xkblas_notopo", baseline.XKBlasNoHeuristicNoTopo(), false)
	s.add("cublas_xt", baseline.CuBLASXT(), false)
	s.add("chameleon_tile", baseline.ChameleonTile(), false)
	return s
}

func (s *sweepRun) add(key string, lib baseline.Library, dod bool) {
	s.libs = append(s.libs, &sweepLib{Library: lib, key: key, dod: dod, s: s})
}

func (s *sweepRun) config(l *sweepLib) bench.Config {
	cfg := bench.Config{Tiles: bench.DefaultTiles(), Platform: s.plat, Runs: 1, NoiseAmp: sweepNoiseAmp, Parallel: 1}
	if l.dod {
		cfg.Scenario = baseline.DataOnDevice
	}
	return cfg
}

// measure runs every point at the given sizes and returns them by library
// key.
func (s *sweepRun) measure(tr *tracer, out *outcome, sizes []int) map[string][]bench.Point {
	s.tr, s.out, s.latency = tr, out, s.latency[:0]
	if tr != nil {
		s.counts = &simCounts{}
	}
	points := make(map[string][]bench.Point)
	for _, n := range sizes {
		for _, r := range s.routines {
			for _, l := range s.libs {
				if !l.Supports(r) {
					out.attempted++
					out.fail("%s does not support %v", l.Name(), r)
					continue
				}
				id := tr.begin("bench.MeasurePoint")
				p := bench.MeasurePoint(s.config(l), l, r, n)
				tr.end(id)
				points[l.key] = append(points[l.key], p)
			}
		}
	}
	return points
}

func (s *sweepRun) iterate(tr *tracer) outcome {
	var out outcome
	points := s.measure(tr, &out, s.sizes)
	out.work = float64(len(s.latency))
	out.model = model{
		TFlops:     geomeanTFlops(points["xkblas"]),
		ServedFrac: ratio(float64(out.attempted-out.failed), float64(out.attempted)),
		P50:        quantile(s.latency, 0.5),
		P99:        quantile(s.latency, 0.99),
		P50N:       len(s.latency),
		P99N:       len(s.latency),
		LatNote:    "leaf runs, simulated elapsed",
		GapPP:      paperGap(table2(points)),
	}
	if tr != nil {
		out.layer = map[string]float64{"baseline.leaf_runs": float64(len(s.latency))}
		s.counts.publish(out.layer)
	}
	return out
}

// leaf records one Library.Run of the sweep; in the traced pass it also
// replays the run through core to split DAG build from the event loop.
func (s *sweepRun) leaf(l *sweepLib, req baseline.Request, res baseline.Result) {
	s.out.attempted++
	if res.Err != nil {
		s.out.fail("%s %v N=%d nb=%d: %v", l.Name(), req.Routine, req.N, req.NB, res.Err)
		return
	}
	s.latency = append(s.latency, float64(res.Elapsed))
	if s.tr == nil {
		return
	}
	s.counts.addResult(res)
	id := s.tr.begin(replicaSpan)
	defer s.tr.end(id)
	lib, ok := l.Library.(*baseline.StdLib)
	if !ok {
		return
	}
	el, err := replay(s.tr, s.counts, lib.Opts, req)
	switch {
	case err != nil:
		s.out.fail("core replay of %s %v N=%d nb=%d: %v", l.Name(), req.Routine, req.N, req.NB, err)
	case el != res.Elapsed:
		s.out.fail("core replay of %s %v N=%d nb=%d took %v simulated seconds, Library.Run %v",
			l.Name(), req.Routine, req.N, req.NB, el, res.Elapsed)
	}
}

// replay drives one standard-protocol library request through core, as
// baseline's runStandard does, and returns its simulated elapsed time.
func replay(tr *tracer, c *simCounts, opts xkrt.Options, req baseline.Request) (el sim.Time, err error) {
	depth := tr.depth()
	defer func() {
		if r := recover(); r != nil {
			tr.unwind(depth)
			err = fmt.Errorf("%v", r)
		}
	}()
	id := tr.begin("core.NewHandle")
	h := core.NewHandle(core.Config{Platform: req.Platform, TileSize: req.NB, Options: opts})
	h.Plat.Model.EnableNoise(req.NoiseAmp, req.NoiseSeed)
	tr.end(id)
	reg := func() *xkrt.Matrix { return h.Register(matrix.NewShape(req.N, req.N)) }
	id = tr.begin("core.Submit")
	var ins []*xkrt.Matrix
	if req.Routine == blasops.Trsm {
		ins = []*xkrt.Matrix{reg(), reg()}
	} else {
		ins = []*xkrt.Matrix{reg(), reg(), reg()}
	}
	if req.Scenario == baseline.DataOnDevice {
		p, q := 4, 2
		if n := len(h.Plat.GPUs); n != 8 {
			p, q = n, 1
		}
		for _, m := range ins {
			h.Distribute2DBlockCyclicAsync(m, p, q)
		}
	}
	tr.end(id)
	if req.Scenario == baseline.DataOnDevice {
		id = tr.begin("core.Sync")
		h.Sync()
		tr.end(id)
	}
	t0 := h.Now()
	id = tr.begin("core.Submit")
	out := ins[len(ins)-1]
	switch req.Routine {
	case blasops.Gemm:
		h.GemmAsync(core.NoTrans, core.NoTrans, 1, ins[0], ins[1], 1, ins[2])
	case blasops.Syr2k:
		h.Syr2kAsync(core.Lower, core.NoTrans, 1, ins[0], ins[1], 1, ins[2])
	case blasops.Trsm:
		h.TrsmAsync(core.Left, core.Lower, core.NoTrans, core.NonUnit, 1, ins[0], ins[1])
	default:
		panic(fmt.Sprintf("no replay for %v", req.Routine))
	}
	if req.Scenario == baseline.DataOnHost {
		h.MemoryCoherentAsync(out)
	}
	tr.end(id)
	id = tr.begin("core.Sync")
	end := h.Sync()
	tr.end(id)
	if err := h.RT.Err(); err != nil {
		return 0, err
	}
	id = tr.begin("xkrt.CollectMetrics")
	snap := h.RT.CollectMetrics()
	tr.end(id)
	c.addHandle(h, snap, float64(end-t0))
	return end - t0, nil
}

// geomeanTFlops is the geometric mean of the points' modelled TFlop/s
// (0 when any point failed).
func geomeanTFlops(ps []bench.Point) float64 {
	if len(ps) == 0 {
		return 0
	}
	logs := 0.0
	for _, p := range ps {
		if p.Err != nil || p.GFlops <= 0 {
			return 0
		}
		logs += math.Log(p.GFlops / 1000)
	}
	return math.Exp(logs / float64(len(ps)))
}

// table2 computes the paper's Table II from the sweep's points, as
// bench.TableII does: over N >= 16384, the largest data-on-device gain and
// the largest losses of the two ablations against full XKBlas, in percent.
func table2(points map[string][]bench.Point) [3][3]float64 {
	var t [3][3]float64
	for ri, r := range sweepRoutines {
		dodMax, noHMin, noHTMin := 0.0, math.Inf(1), math.Inf(1)
		for _, ref := range points["xkblas"] {
			if ref.Routine != r || ref.N < 16384 || ref.Err != nil || ref.GFlops == 0 {
				continue
			}
			gain := func(key string) (float64, bool) {
				for _, p := range points[key] {
					if p.Routine == r && p.N == ref.N && p.Err == nil {
						return p.GFlops/ref.GFlops - 1, true
					}
				}
				return 0, false
			}
			if g, ok := gain("xkblas_dod"); ok {
				dodMax = max(dodMax, g)
			}
			if g, ok := gain("xkblas_noheur"); ok {
				noHMin = min(noHMin, g)
			}
			if g, ok := gain("xkblas_notopo"); ok {
				noHTMin = min(noHTMin, g)
			}
		}
		t[ri] = [3]float64{100 * dodMax, 100 * finite(noHMin), 100 * finite(noHTMin)}
	}
	return t
}

// finite maps an undefined (infinite) Table II cell to 0.
func finite(x float64) float64 {
	if math.IsInf(x, 0) {
		return 0
	}
	return x
}

// paperGap is the mean absolute gap, in percentage points, between
// measured Table II cells and the paper's.
func paperGap(cells [3][3]float64) float64 {
	total := 0.0
	for i := range cells {
		for j := range cells[i] {
			total += math.Abs(cells[i][j] - paperTable2[i][j])
		}
	}
	return total / 9
}

// audit reruns the N = 8192 points of every library under the auditor.
func (s *sweepRun) audit() error {
	for _, r := range s.routines {
		for _, l := range s.libs {
			if !l.Supports(r) {
				continue
			}
			cfg := s.config(l)
			cfg.Check = true
			if p := bench.MeasurePoint(cfg, l.Library, r, s.sizes[0]); p.Err != nil {
				return fmt.Errorf("%s %v N=%d: %w", l.Name(), r, s.sizes[0], p.Err)
			}
		}
	}
	return nil
}
