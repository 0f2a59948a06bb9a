package xkrt

import (
	"context"
	"errors"
	"testing"

	"xkblas/internal/cache"
	"xkblas/internal/matrix"
	"xkblas/internal/sim"
)

// TestSubmitSteadyStateAllocBudget is the allocation gate behind `make
// bench-alloc`: on a warmed runtime one full submit→run→retire wave of 64
// tasks must allocate nothing. The steady-state task path runs entirely on
// arenas and existing records — task records, access slices, dependency
// scratch, ready queues, engine events, kernel-completion records, and on
// the transfer path the hop joins, under-transfer records and the tasks
// themselves as replica waiters — so any allocation is a regression.
func TestSubmitSteadyStateAllocBudget(t *testing.T) {
	rig := newBenchRig()
	rig.submitWave()
	rig.rt.Barrier()
	allocs := testing.AllocsPerRun(20, func() {
		rig.submitWave()
		rig.rt.Barrier()
	})
	if err := rig.rt.Err(); err != nil {
		t.Fatal(err)
	}
	const budget = 0
	if allocs > budget {
		t.Fatalf("steady-state wave allocates %.1f objects (budget %d, 64 tasks/wave): the task or transfer path is leaking allocations", allocs, budget)
	}
}

// TestSubAliasesArenaRecycledTiles: Matrix.Sub must share the parent's
// cache tile records by pointer — including records the arena recycled
// from an earlier runtime generation — because overlapping sub-matrices
// are ordered through the dependency rows indexed by those records' slots.
func TestSubAliasesArenaRecycledTiles(t *testing.T) {
	rig := newBenchRig()
	rig.submitWave()
	rig.rt.Barrier()

	// Remember the first generation's tile records, then retire them all.
	oldTiles := make(map[*cache.Tile]bool, benchGrid*benchGrid)
	rig.m.EachTile(func(_, _ int, tl *cache.Tile) { oldTiles[tl] = true })

	rig.reset()
	m2 := rig.rt.Register(matrix.NewShape(benchGrid*256, benchGrid*256), 256)

	recycled := 0
	m2.EachTile(func(_, _ int, tl *cache.Tile) {
		if oldTiles[tl] {
			recycled++
		}
	})
	if recycled == 0 {
		t.Fatal("no tile record recycled across Reset: the tile arena is not being reused")
	}

	sub := m2.Sub(2, 3, 4, 5)
	for r := 0; r < 4; r++ {
		for c := 0; c < 5; c++ {
			if sub.Tile(r, c) != m2.Tile(2+r, 3+c) {
				t.Fatalf("sub tile (%d,%d) does not alias parent tile (%d,%d)", r, c, 2+r, 3+c)
			}
		}
	}
}

// TestEachTileOnRecycledTiles: after a Reset, re-registered matrices draw
// recycled tile records from the arena; EachTile must visit them in
// row-major order with correct fresh keys and dimensions, and running work
// over them must behave like a fresh runtime (same makespan as the first
// generation's identical wave).
func TestEachTileOnRecycledTiles(t *testing.T) {
	rig := newBenchRig()
	rig.submitWave()
	first := rig.rt.Barrier()
	if err := rig.rt.Err(); err != nil {
		t.Fatal(err)
	}

	rig.reset()
	m2 := rig.rt.Register(matrix.NewShape(benchGrid*256, benchGrid*256), 256)
	want := 0
	m2.EachTile(func(i, j int, tl *cache.Tile) {
		if tl.Key.I != i || tl.Key.J != j {
			t.Fatalf("recycled tile at (%d,%d) kept stale key %v", i, j, tl.Key)
		}
		if tl != m2.Tile(i, j) {
			t.Fatalf("EachTile visits a different record than Tile(%d,%d)", i, j)
		}
		if tl.M != 256 || tl.N != 256 {
			t.Fatalf("recycled tile (%d,%d) has stale dims %dx%d", i, j, tl.M, tl.N)
		}
		want++
	})
	if want != benchGrid*benchGrid {
		t.Fatalf("EachTile visited %d tiles, want %d", want, benchGrid*benchGrid)
	}

	rig.m = m2
	rig.submitWave()
	second := rig.rt.Barrier()
	if err := rig.rt.Err(); err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("wave on recycled tiles finished at %v, fresh runtime at %v: Reset is not bit-identical", second, first)
	}
}

// TestResetAfterCancelClearsDependencyRows: a cancelled run leaves its
// unfinished tasks in the dependency rows. Reset must clear the rows, or
// the next run's tasks would depend on records that never complete.
func TestResetAfterCancelClearsDependencyRows(t *testing.T) {
	ref := newBenchRig()
	ref.submitWave()
	full := ref.rt.Barrier()

	rig := newBenchRig()
	rig.submitWave()
	rig.eng.At(full/2, func() { rig.rt.Cancel(context.Canceled) })
	rig.rt.Barrier()
	if !errors.Is(rig.rt.Err(), ErrCanceled) || rig.rt.Pending() == 0 {
		t.Fatalf("cancellation did not strand tasks (err %v, pending %d)", rig.rt.Err(), rig.rt.Pending())
	}

	rig.reset()
	rig.m = rig.rt.Register(matrix.NewShape(benchGrid*256, benchGrid*256), 256)
	rig.submitWave()
	if end := rig.rt.Barrier(); end != full {
		t.Fatalf("wave after a cancelled run finished at %v, fresh runtime at %v", end, full)
	}
	if err := rig.rt.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestResetCapsTaskArena: the task arena is most of what an idle pooled
// context holds, so Reset keeps at most sim.MaxFreeRetained recycled task
// records (the engine's event free-list bound) and releases the
// peak-sized backing array; the runtime keeps working afterwards.
func TestResetCapsTaskArena(t *testing.T) {
	rig := newBenchRig()
	waves := sim.MaxFreeRetained/(benchGrid*benchGrid) + 2
	for w := 0; w < waves; w++ {
		rig.submitWave()
	}
	rig.rt.Barrier()
	if got := len(rig.rt.taskFree); got <= sim.MaxFreeRetained {
		t.Fatalf("only %d recycled tasks after %d waves: the cap is not exercised", got, waves)
	}
	rig.reset()
	if got := len(rig.rt.taskFree); got > sim.MaxFreeRetained {
		t.Fatalf("task free list holds %d records after Reset, cap is %d", got, sim.MaxFreeRetained)
	}
	if got := cap(rig.rt.taskFree); got > 2*sim.MaxFreeRetained {
		t.Fatalf("task free list backing array cap %d survived Reset", got)
	}
	rig.m = rig.rt.Register(matrix.NewShape(benchGrid*256, benchGrid*256), 256)
	rig.submitWave()
	rig.rt.Barrier()
	if err := rig.rt.Err(); err != nil {
		t.Fatal(err)
	}
}
