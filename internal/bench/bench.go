// Package bench is the measurement harness reproducing the paper's
// methodology (§IV-A): for each (library, routine, N) it sweeps the tile
// sizes {1024, 2048, 4096} — extended to 8192/16384 for cuBLAS-XT and
// SLATE — keeps the best-performing tile, and reports the mean of repeated
// runs with a 95% confidence interval (repetitions differ by deterministic
// kernel-time jitter seeds). The paper also discards a warm-up run; a
// simulated run inherits nothing from earlier runs, so there is nothing to
// warm and the harness simulates measured repetitions only.
//
// A Config is the only way to set a run. Every experiment driver takes
// the caller's Config and applies its run-wide fields — platform,
// parallelism, audit, metrics, context, stream window and leaf memo — to
// every simulation it starts; the package keeps no mutable state of its
// own, so a leaf simulation is a function of its Config and request alone.
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
	"xkblas/internal/metrics"
	"xkblas/internal/policy"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
	"xkblas/internal/xkrt"
)

// Point is one measured series point.
type Point struct {
	Lib     string
	Routine blasops.Routine
	N       int
	NB      int // best tile size
	GFlops  float64
	CI95    float64 // half-width of the 95% confidence interval, GFlop/s
	Runs    int
	// Decisions holds the policy-decision counters of the best tile's first
	// measured repetition — the counted choices (transfer sources by link
	// class, optimistic chains, evictions, steals) behind the GFlops number.
	Decisions policy.Decisions
	// Metrics is the utilization snapshot of the same repetition (nil
	// unless Config.Metrics was set). Like Decisions it comes from the best
	// tile's first measured rep, so sequential and parallel sweeps agree
	// byte-for-byte.
	Metrics metrics.Snapshot
	Err     error
}

// Config drives a sweep.
type Config struct {
	Libs     []baseline.Library
	Routines []blasops.Routine
	Sizes    []int
	// Tiles lists candidate tile sizes; zero value uses the paper's
	// {1024, 2048, 4096}.
	Tiles []int
	// ExtraTilesFor extends the candidates with {8192, 16384} for the
	// named libraries (cuBLAS-XT and Slate in the paper).
	ExtraTilesFor map[string]bool
	// Platform selects the simulated platform every leaf run builds; nil
	// means the paper's DGX-1. The experiment drivers also read it: Table
	// I, Fig. 2 and the per-GPU figures describe this platform, and a
	// non-nil value adds it as an extra row or section to the summit and
	// batch extensions.
	Platform *topology.Platform
	Scenario baseline.Scenario
	// Runs is the number of measured repetitions; the paper uses 8 (after
	// a discarded warm-up, which a simulation does not need).
	Runs int
	// NoiseAmp is the kernel jitter amplitude (0 disables noise and
	// collapses the CI to zero).
	NoiseAmp float64
	// MaxTilesPerDim caps (N/NB) to bound simulation cost on huge sweeps;
	// 0 means no cap.
	MaxTilesPerDim int
	// Progress, when non-nil, receives one line per completed point.
	Progress io.Writer
	// Parallel is the number of worker goroutines executing independent
	// simulated runs. Values ≤ 1 run sequentially. Every simulation owns a
	// private sim.Engine, and results are reassembled in the sequential
	// order, so any parallelism level returns bit-identical points (see
	// DESIGN.md §6).
	Parallel int
	// Check attaches the strict coherence-invariant auditor to every
	// simulated run (xkbench -check). Auditing is pure observation: a clean
	// sweep is bit-identical to an unaudited one; a violation surfaces as
	// the point's Err.
	Check bool
	// Metrics collects every leaf run's utilization snapshot and attaches
	// the best tile's first measured rep to each Point (xkbench -metrics).
	// Off (the default), no collection happens and output is byte-identical
	// to a metrics-free harness.
	Metrics bool
	// Ctx, when non-nil, bounds the sweep: once it is cancelled (deadline
	// or signal) no new leaf simulations start, in-flight ones are aborted
	// through the runtime's cancellation path, and RunSweep returns the
	// completed prefix of points — every unfinished point carries the
	// context's error. A nil (or never-cancelled) Ctx leaves the sweep
	// bit-identical to one without a context.
	Ctx context.Context
	// StreamWindow, when positive, streams every leaf run's DAG through a
	// bounded task window (xkbench -window) instead of materializing it
	// whole; 0 leaves runs byte-identical to the historical whole-graph
	// submission.
	StreamWindow int
	// Memo, when non-nil, shares leaf results across every sweep that
	// carries it (cmd/xkbench builds one per invocation): a leaf whose key
	// was already simulated is read, not simulated again. Memoized
	// results are shared read-only. nil simulates every leaf.
	Memo *LeafMemo

	// repSeeds seeds repetition rep's kernel noise with rep·131 instead of
	// the sweep rule rep·7919 + N + NB. Only the scalability and Summit
	// extensions set it, which keeps their tables' bytes.
	repSeeds bool
}

// runWide returns the run-wide part of cfg — platform, parallelism, audit,
// metrics, context, stream window and leaf memo — as the base every
// experiment driver builds its own sweeps on.
func (cfg Config) runWide() Config {
	return Config{
		Platform:     cfg.Platform,
		Parallel:     cfg.Parallel,
		Check:        cfg.Check,
		Metrics:      cfg.Metrics,
		Ctx:          cfg.Ctx,
		StreamWindow: cfg.StreamWindow,
		Memo:         cfg.Memo,
	}
}

// platform resolves the platform a driver describes: Platform, or the
// paper's DGX-1 when it is nil.
func (cfg Config) platform() *topology.Platform {
	if cfg.Platform != nil {
		return cfg.Platform
	}
	return topology.DGX1()
}

// DefaultTiles is the paper's tile-size candidate set.
func DefaultTiles() []int { return []int{1024, 2048, 4096} }

// PaperSizes is the matrix-dimension sweep of Figs. 3-5.
func PaperSizes() []int {
	return []int{4096, 8192, 12288, 16384, 24576, 32768, 40960, 49152, 57344}
}

// QuickSizes is a reduced sweep for test/bench binaries.
func QuickSizes() []int { return []int{8192, 16384, 32768} }

// meanCI returns the sample mean and 95% CI half-width (normal
// approximation, the convention behind the paper's error bars).
func meanCI(xs []float64) (mean, ci float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(ss / (n - 1))
	return mean, 1.96 * sd / math.Sqrt(n)
}

// effectiveRuns resolves the configured repetition count (paper default 8).
func effectiveRuns(cfg Config) int {
	if cfg.Runs <= 0 {
		return 8
	}
	return cfg.Runs
}

// tileCandidates returns the candidate tile sizes for one library, in
// configuration order, deduplicated: when ExtraTilesFor adds 8192/16384
// that are already in cfg.Tiles, each tile is measured exactly once.
func tileCandidates(cfg Config, lib baseline.Library) []int {
	tiles := cfg.Tiles
	if len(tiles) == 0 {
		tiles = DefaultTiles()
	}
	out := make([]int, 0, len(tiles)+2)
	seen := make(map[int]bool, len(tiles)+2)
	add := func(nb int) {
		if !seen[nb] {
			seen[nb] = true
			out = append(out, nb)
		}
	}
	for _, nb := range tiles {
		add(nb)
	}
	if cfg.ExtraTilesFor[lib.Name()] {
		add(8192)
		add(16384)
	}
	return out
}

// feasibleTiles filters candidates against the problem size and the
// per-dimension tile cap. The result is fully determined by the config, so
// the parallel harness can enumerate every simulated run up front.
func feasibleTiles(cfg Config, lib baseline.Library, n int) []int {
	var out []int
	for _, nb := range tileCandidates(cfg, lib) {
		if nb > n {
			continue
		}
		if cfg.MaxTilesPerDim > 0 && (n+nb-1)/nb > cfg.MaxTilesPerDim {
			continue
		}
		out = append(out, nb)
	}
	return out
}

// runRep executes measured repetition rep (1-based) of one tile: a leaf.
// Its kernel noise is seeded rep·7919 + N + NB, or rep·131 under
// repSeeds. Each leaf runs on a private context (engine, platform and
// runtime, recycled from baseline's idle pool), so leaves are independent
// and safe to execute concurrently. With cfg.Memo set, a leaf already
// simulated in this invocation is read from the memo instead.
func runRep(cfg Config, lib baseline.Library, r blasops.Routine, n, nb, rep int) baseline.Result {
	if cfg.Ctx != nil {
		// Cancelled sweep: skip the leaf without building a simulation.
		if err := cfg.Ctx.Err(); err != nil {
			return baseline.Result{Err: err}
		}
	}
	seed := int64(rep)*7919 + int64(n) + int64(nb)
	if cfg.repSeeds {
		seed = int64(rep) * 131
	}
	req := baseline.Request{
		Routine:      r,
		N:            n,
		NB:           nb,
		Platform:     cfg.Platform,
		Scenario:     cfg.Scenario,
		NoiseAmp:     cfg.NoiseAmp,
		NoiseSeed:    seed,
		Check:        cfg.Check,
		Metrics:      cfg.Metrics,
		Ctx:          cfg.Ctx,
		StreamWindow: cfg.StreamWindow,
	}
	return cfg.Memo.leaf(lib.Name(), req, func() baseline.Result { return lib.Run(req) })
}

// tileRuns holds the measured repetitions of one candidate tile size.
// upTo is the number of populated entries: the sequential path stops filling
// at the first error, the parallel path always fills all of them; reduction
// only reads entries up to the first error, so both populations reduce to
// the same Point.
type tileRuns struct {
	nb   int
	res  []baseline.Result // entry i holds repetition i+1
	upTo int
}

// measureTilesSequential reproduces the sequential per-tile inner loop:
// repetitions 1..Runs, stopping a tile at its first error.
func measureTilesSequential(cfg Config, lib baseline.Library, r blasops.Routine, n int, tiles []int) []tileRuns {
	runs := effectiveRuns(cfg)
	out := make([]tileRuns, len(tiles))
	for ti, nb := range tiles {
		tr := tileRuns{nb: nb, res: make([]baseline.Result, runs)}
		for i := range tr.res {
			tr.res[i] = runRep(cfg, lib, r, n, nb, i+1)
			tr.upTo = i + 1
			if tr.res[i].Err != nil {
				break
			}
		}
		out[ti] = tr
	}
	return out
}

// reducePoint folds per-tile results into the best-tile Point. It is the
// single reduction used by the sequential and parallel paths, which is what
// makes their outputs bit-identical: tiles are considered in candidate
// order and samples in repetition order, exactly as the sequential loop
// measured them. When every tile fails, the returned point carries the last
// error tagged with its tile size.
func reducePoint(lib baseline.Library, r blasops.Routine, n int, tiles []tileRuns) Point {
	best := Point{Lib: lib.Name(), Routine: r, N: n, Err: fmt.Errorf("no feasible tile size")}
	var lastErr error
	lastNB := 0
	for _, tr := range tiles {
		var samples []float64
		var failed error
		for _, res := range tr.res[:tr.upTo] {
			if res.Err != nil {
				failed = res.Err
				break
			}
			samples = append(samples, res.GFlops)
		}
		if failed != nil {
			lastErr = failed
			lastNB = tr.nb
			continue
		}
		mean, ci := meanCI(samples)
		if best.Err != nil || mean > best.GFlops {
			best = Point{Lib: lib.Name(), Routine: r, N: n, NB: tr.nb,
				GFlops: mean, CI95: ci, Runs: len(samples),
				// First measured repetition: deterministic for a given
				// config, so sequential and parallel sweeps agree.
				Decisions: tr.res[0].Decisions,
				Metrics:   tr.res[0].Metrics}
		}
	}
	if best.Err != nil && lastErr != nil {
		best.Err = fmt.Errorf("no feasible tile size (last attempt nb=%d: %w)", lastNB, lastErr)
	}
	return best
}

// leafCanceled reports whether a leaf result failed because the sweep was
// cancelled (context expiry or the runtime's cancellation error) rather
// than because of a genuine measurement failure.
func leafCanceled(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, xkrt.ErrCanceled))
}

// pointCanceled reports whether any populated leaf of a point was cut
// short by cancellation. Such a point must not be reduced: its samples are
// an arbitrary subset of the configured repetitions.
func pointCanceled(trs []tileRuns) bool {
	for _, tr := range trs {
		for _, res := range tr.res[:tr.upTo] {
			if leafCanceled(res.Err) {
				return true
			}
		}
	}
	return false
}

// sweepErr is the error recorded on every point a cancelled sweep did not
// complete: the context's own error when available (context.Canceled or
// context.DeadlineExceeded), else context.Canceled.
func sweepErr(cfg Config) error {
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return err
		}
	}
	return context.Canceled
}

// canceledPoint is the placeholder emitted for every point a cancelled
// sweep did not finish.
func canceledPoint(cfg Config, lib baseline.Library, r blasops.Routine, n int) Point {
	return Point{Lib: lib.Name(), Routine: r, N: n, Err: sweepErr(cfg)}
}

// MeasurePoint measures one (lib, routine, N) with best-tile selection.
// With cfg.Parallel > 1 the per-tile/per-repetition simulations run on a
// bounded worker pool; the result is bit-identical to the sequential path.
// If cfg.Ctx is cancelled mid-measurement the point comes back with the
// context's error instead of a partial reduction.
func MeasurePoint(cfg Config, lib baseline.Library, r blasops.Routine, n int) Point {
	tiles := feasibleTiles(cfg, lib, n)
	var trs []tileRuns
	if cfg.Parallel > 1 {
		trs = measureTilesParallel(cfg, lib, r, n, tiles)
	} else {
		trs = measureTilesSequential(cfg, lib, r, n, tiles)
	}
	if pointCanceled(trs) {
		return canceledPoint(cfg, lib, r, n)
	}
	return reducePoint(lib, r, n, trs)
}

// sweepPlan is one (routine, library, size) work unit of a sweep, in the
// deterministic order of the sequential loop.
type sweepPlan struct {
	lib baseline.Library
	r   blasops.Routine
	n   int
}

// sweepPlans enumerates the sweep's points in sequential order.
func sweepPlans(cfg Config) []sweepPlan {
	var plans []sweepPlan
	for _, r := range cfg.Routines {
		for _, lib := range cfg.Libs {
			if !lib.Supports(r) {
				continue
			}
			for _, n := range cfg.Sizes {
				plans = append(plans, sweepPlan{lib: lib, r: r, n: n})
			}
		}
	}
	return plans
}

// progressLine emits the one-line report of a completed point.
func progressLine(w io.Writer, p Point) {
	if w == nil {
		return
	}
	if p.Err != nil {
		fmt.Fprintf(w, "%-8s %-28s N=%-6d ERROR: %v\n", p.Routine, p.Lib, p.N, p.Err)
	} else {
		fmt.Fprintf(w, "%-8s %-28s N=%-6d %9.1f ±%6.1f GF/s (nb=%d)\n",
			p.Routine, p.Lib, p.N, p.GFlops, p.CI95, p.NB)
	}
}

// RunSweep measures every combination in the config. With cfg.Parallel > 1
// the independent simulations fan out across a bounded worker pool; points
// and Progress lines are assembled in the same deterministic order as the
// sequential loop and are bit-identical to it.
//
// When cfg.Ctx is cancelled mid-sweep the returned slice still has one
// entry per planned point, in the same deterministic order: a completed
// prefix bit-identical to what an uncancelled sweep would have produced,
// followed by points whose Err is the context's error. The cut is
// monotonic — once one point is cancelled, every later point is too.
func RunSweep(cfg Config) []Point {
	if cfg.Parallel > 1 {
		return runSweepParallel(cfg)
	}
	plans := sweepPlans(cfg)
	out := make([]Point, 0, len(plans))
	cut := false
	for _, pl := range plans {
		var p Point
		if cut {
			p = canceledPoint(cfg, pl.lib, pl.r, pl.n)
		} else {
			p = MeasurePoint(cfg, pl.lib, pl.r, pl.n)
			if leafCanceled(p.Err) {
				cut = true
				p = canceledPoint(cfg, pl.lib, pl.r, pl.n)
			}
		}
		out = append(out, p)
		progressLine(cfg.Progress, p)
	}
	return out
}

// WriteCSV emits points as CSV with a header, in a stable order.
func WriteCSV(w io.Writer, points []Point) error {
	if _, err := fmt.Fprintln(w, "routine,library,n,nb,gflops,ci95,runs,error"); err != nil {
		return err
	}
	sorted := sortPoints(points)
	for _, p := range sorted {
		errStr := ""
		if p.Err != nil {
			errStr = p.Err.Error()
		}
		if _, err := fmt.Fprintf(w, "%s,%q,%d,%d,%.2f,%.2f,%d,%q\n",
			p.Routine, p.Lib, p.N, p.NB, p.GFlops, p.CI95, p.Runs, errStr); err != nil {
			return err
		}
	}
	return nil
}

// WriteDecisions renders the policy-decision counters of each point as a
// table: transfers by link class, optimistic-chain outcomes, evictions and
// scheduling outcomes. Points are ordered like WriteCSV; failed points are
// skipped (they have no counters).
func WriteDecisions(w io.Writer, points []Point) error {
	sorted := sortPoints(points)
	if _, err := fmt.Fprintf(w, "%-8s %-28s %-7s %-6s %8s %8s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"routine", "library", "n", "nb",
		"nv2", "nv1", "pcie", "host", "chain+", "chain-", "evict", "dirtysk", "owner", "steal"); err != nil {
		return err
	}
	for _, p := range sorted {
		if p.Err != nil {
			continue
		}
		d := p.Decisions
		if _, err := fmt.Fprintf(w, "%-8s %-28s %-7d %-6d %8d %8d %8d %8d %8d %8d %8d %8d %8d %8d\n",
			p.Routine, p.Lib, p.N, p.NB,
			d.SrcNVLink2, d.SrcNVLink1, d.SrcPCIeP2P, d.SrcHost,
			d.ChainsTaken, d.ChainsMissed,
			d.EvictClean, d.EvictDirtySkipped,
			d.OwnerHits, d.Steals); err != nil {
			return err
		}
	}
	return nil
}

// Series extracts the (N, GFlops) series of one library/routine from a
// point set, sorted by N.
func Series(points []Point, lib string, r blasops.Routine) (ns []int, gf []float64) {
	var ps []Point
	for _, p := range points {
		if p.Lib == lib && p.Routine == r && p.Err == nil {
			ps = append(ps, p)
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].N < ps[j].N })
	for _, p := range ps {
		ns = append(ns, p.N)
		gf = append(gf, p.GFlops)
	}
	return ns, gf
}

// TFlops formats GFlop/s as the paper's TFlop/s axis value.
func TFlops(gf float64) float64 { return gf / 1000 }

// ElapsedString renders a virtual duration for reports.
func ElapsedString(t sim.Time) string { return fmt.Sprintf("%.3fs", float64(t)) }
