package bench

import (
	"sync"
	"sync/atomic"

	"xkblas/internal/baseline"
)

// Sweep execution.
//
// Every simulated repetition owns a private sim.Engine and platform, so the
// leaves of a sweep — one (point, tile, repetition) simulation each — are
// embarrassingly parallel. One executor, runPlans, runs them at every
// parallelism level; with one worker it is the sequential loop itself. See
// DESIGN.md §6.

// forEach calls fn(i) for every i in [0, n), handing out indices in
// ascending order to at most workers goroutines. The caller is the first
// worker, so with workers ≤ 1 every call runs on the caller, in order, and
// no goroutine starts. It returns once every call has.
func forEach(workers, n int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for range min(workers, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// runPlans measures every plan and returns one point per plan, in plan
// order. It lists the leaves in plan order and runs them on cfg.Parallel
// workers through forEach. The worker that finishes a point's last leaf
// commits every point whose own leaves and predecessors are all done: it
// applies the cancellation cut, reduces the point and writes its Progress
// line. Reduction and reporting thus follow plan order whoever ran the
// leaves, so the points and the Progress stream are bit-identical at every
// parallelism level; with one worker each point is committed before the
// next leaf starts.
//
// On cancellation the cut is monotonic: once one point has a cancelled
// leaf, every later point is reported as cancelled too, even if its leaves
// happened to finish out of order, so the partial prefix is the same at
// every parallelism level.
func runPlans(cfg Config, plans []sweepPlan) []Point {
	type leaf struct{ point, tile, rep int }
	runs := effectiveRuns(cfg)
	grids := make([][]tileRuns, len(plans))
	left := make([]int, len(plans))
	var leaves []leaf
	for pi, pl := range plans {
		tiles := feasibleTiles(cfg, pl.lib, pl.n)
		grids[pi] = make([]tileRuns, len(tiles))
		for ti, nb := range tiles {
			grids[pi][ti] = tileRuns{nb: nb, res: make([]baseline.Result, runs)}
			for rep := range runs {
				leaves = append(leaves, leaf{pi, ti, rep})
			}
		}
		left[pi] = len(tiles) * runs
	}

	out := make([]Point, 0, len(plans))
	cut := false
	var mu sync.Mutex
	// commit reports the complete prefix of plans not yet committed.
	// Workers call it under mu, which also keeps their Progress lines in
	// plan order.
	commit := func() {
		for len(out) < len(plans) && left[len(out)] == 0 {
			pl, trs := plans[len(out)], grids[len(out)]
			var p Point
			if cut || pointCanceled(trs) {
				cut = true
				p = canceledPoint(cfg, pl.lib, pl.r, pl.n)
			} else {
				p = reducePoint(pl.lib, pl.r, pl.n, trs)
			}
			out = append(out, p)
			progressLine(cfg.Progress, p)
		}
	}
	// Leading points with no feasible tile have no leaf to complete them.
	commit()
	forEach(cfg.Parallel, len(leaves), func(i int) {
		lf := leaves[i]
		pl := plans[lf.point]
		tr := &grids[lf.point][lf.tile]
		res := runRep(cfg, pl.lib, pl.r, pl.n, tr.nb, lf.rep+1)
		mu.Lock()
		defer mu.Unlock()
		tr.res[lf.rep] = res
		left[lf.point]--
		commit()
	})
	return out
}
