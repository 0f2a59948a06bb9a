package bench

import (
	"sync"
	"sync/atomic"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
)

// Parallel sweep execution.
//
// Every simulated repetition owns a private sim.Engine and platform, so the
// runs of a sweep are embarrassingly parallel. The harness flattens a sweep
// into its leaf work units — one (point, tile, repetition) simulation each —
// and executes them on a bounded pool of worker goroutines. Determinism is
// preserved at the join: results are written into pre-indexed slots and
// reduced by the same code, in the same order, as the sequential loop, so
// the returned []Point (and the Progress stream) is bit-identical at every
// parallelism level. See DESIGN.md §6.

// workerCount clamps a configured parallelism to at least one worker.
func workerCount(parallel int) int {
	if parallel < 1 {
		return 1
	}
	return parallel
}

// workerPool executes submitted closures on at most `workers` goroutines.
// Submit never blocks the caller beyond goroutine spawn; the semaphore
// bounds concurrent execution, not submission.
type workerPool struct {
	sem chan struct{}
	wg  sync.WaitGroup
}

func newWorkerPool(workers int) *workerPool {
	return &workerPool{sem: make(chan struct{}, workerCount(workers))}
}

// Submit schedules fn for execution on the pool.
func (p *workerPool) Submit(fn func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		fn()
	}()
}

// Wait blocks until every submitted closure has finished.
func (p *workerPool) Wait() { p.wg.Wait() }

// measureTilesParallel fills the same per-tile repetition grid as
// measureTilesSequential, running every (tile, repetition) leaf
// concurrently. Unlike the sequential path it does not stop a tile at its
// first failing repetition — later slots are filled too — but reducePoint
// reads repetitions in order and stops at the first error, so the reduced
// Point is identical.
func measureTilesParallel(cfg Config, lib baseline.Library, r blasops.Routine, n int, tiles []int) []tileRuns {
	runs := effectiveRuns(cfg)
	out := make([]tileRuns, len(tiles))
	pool := newWorkerPool(cfg.Parallel)
	for ti, nb := range tiles {
		out[ti] = tileRuns{nb: nb, res: make([]baseline.Result, runs), upTo: runs}
		for i := range runs {
			pool.Submit(func() {
				out[ti].res[i] = runRep(cfg, lib, r, n, nb, i+1)
			})
		}
	}
	pool.Wait()
	return out
}

// runSweepParallel executes a whole sweep on the worker pool. The sweep is
// flattened into leaf simulations up front (tile candidates depend only on
// the config, never on results), every leaf writes into its pre-assigned
// slot, and a single committer reduces and reports points in sequential
// order — a point's Progress line is emitted as soon as it and every
// earlier point have finished, preserving both streaming and ordering.
func runSweepParallel(cfg Config) []Point {
	plans := sweepPlans(cfg)
	nPoints := len(plans)
	grids := make([][]tileRuns, nPoints)
	remaining := make([]atomic.Int64, nPoints)
	done := make(chan int, nPoints)
	runs := effectiveRuns(cfg)

	pool := newWorkerPool(cfg.Parallel)
	for pi, pl := range plans {
		tiles := feasibleTiles(cfg, pl.lib, pl.n)
		grids[pi] = make([]tileRuns, len(tiles))
		leaves := int64(len(tiles)) * int64(runs)
		if leaves == 0 {
			// No feasible tile: the point is already complete.
			done <- pi
			continue
		}
		remaining[pi].Store(leaves)
		for ti, nb := range tiles {
			grids[pi][ti] = tileRuns{nb: nb, res: make([]baseline.Result, runs), upTo: runs}
			for i := range runs {
				pool.Submit(func() {
					grids[pi][ti].res[i] = runRep(cfg, pl.lib, pl.r, pl.n, nb, i+1)
					if remaining[pi].Add(-1) == 0 {
						done <- pi
					}
				})
			}
		}
	}

	// Ordered commit: reduce and report each point once it and all its
	// predecessors are complete. On cancellation the cut is monotonic: once
	// one point has a cancelled leaf, every later point is reported as
	// cancelled too, even if its leaves happened to finish out of order —
	// that keeps the parallel partial prefix identical to the sequential
	// one.
	out := make([]Point, 0, nPoints)
	ready := make([]bool, nPoints)
	cut := false
	for emitted := 0; emitted < nPoints; {
		ready[<-done] = true
		for emitted < nPoints && ready[emitted] {
			pl := plans[emitted]
			var p Point
			if cut || pointCanceled(grids[emitted]) {
				cut = true
				p = canceledPoint(cfg, pl.lib, pl.r, pl.n)
			} else {
				p = reducePoint(pl.lib, pl.r, pl.n, grids[emitted])
			}
			out = append(out, p)
			progressLine(cfg.Progress, p)
			emitted++
		}
	}
	pool.Wait()
	return out
}
