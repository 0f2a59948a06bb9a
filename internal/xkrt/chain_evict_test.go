package xkrt

import (
	"errors"
	"testing"

	"xkblas/internal/cache"
	"xkblas/internal/check"
	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// newChainRig builds a runtime on a DGX-1 whose GPU 0 holds exactly one
// 64x64 tile, so any second allocation there must evict.
func newChainRig(t *testing.T) (*sim.Engine, *Runtime) {
	t.Helper()
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	tileBytes := int64(64 * 64 * matrix.WordSize)
	plat.GPUs[0].Mem = device.NewMemPool(tileBytes + 64)
	return eng, New(eng, plat, false, DefaultOptions())
}

func newTestTile(rt *Runtime) *cache.Tile {
	c := rt.Cache
	return c.NewTile(cache.TileKey{Mat: c.NewMatrixID()}, matrix.NewShape(64, 64))
}

// TestChainedForwardSurvivesEviction reproduces the evict-between-waiters
// interleaving: a chained forward hop T: 0 -> 1 is armed on T's arrival at
// GPU 0, but an earlier waiter of the same arrival allocates another tile
// on the memory-constrained GPU 0, evicting T's just-arrived, unpinned
// replica before the hop's StartTransfer runs. The pre-fix waiter assumed
// "src is necessarily valid now" and panicked on the invalid source; the
// fixed hop re-validates, re-selects the host as source and completes.
func TestChainedForwardSurvivesEviction(t *testing.T) {
	eng, rt := newChainRig(t)
	audit := check.New(false)
	rt.AttachAuditor(audit)
	c := rt.Cache

	T := newTestTile(rt) // the forwarded tile
	U := newTestTile(rt) // the tile whose allocation evicts T@0

	if err := c.StartTransfer(T, topology.Host, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Waiter 1 (registered first, runs first): consume GPU 0's memory.
	// T@0 is valid, clean and unpinned at this point, so it is evicted.
	T.AddInflightWaiter(0, waiterFunc(func(err error) {
		if err != nil {
			t.Fatalf("upstream hop failed: %v", err)
		}
		if err := c.AllocRaw(U, 0); err != nil {
			t.Fatalf("evicting allocation failed: %v", err)
		}
		if T.ValidOn(0) {
			t.Fatal("interleaving not reproduced: T@0 survived the allocation")
		}
	}))
	// Waiter 2: the optimistic forward hop 0 -> 1, exactly as issueFetch
	// plans it.
	arrived := false
	c.MarkInflight(T, 1)
	T.AddInflightWaiter(0, &chainHop{rt: rt, src: 0, dst: 1, next: notify(func() { arrived = true })})

	eng.Run()

	if !arrived || !T.ValidOn(1) {
		t.Fatal("chained forward did not deliver T to GPU 1 after source eviction")
	}
	if T.InflightTo(1) {
		t.Fatal("under-transfer record for GPU 1 never resolved")
	}
	if err := rt.Err(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !audit.Ok() {
		t.Fatalf("auditor flagged the recovery: %v", audit.Violations())
	}
	// The replanned hop fell back to the host read (GPU 0 lost its copy
	// and no other GPU has one).
	if got := rt.Stats().HostFallbacks; got != 1 {
		t.Fatalf("re-selected source should be the host, HostFallbacks = %d", got)
	}
}

// TestChainedForwardCancelledOnUpstreamFailure verifies the stale
// synthetic-inflight fix at the runtime level: when the upstream hop of a
// chain is cancelled, the chain cancels its own under-transfer record
// (unwedging future consumers) and fails the run with the upstream error.
func TestChainedForwardCancelledOnUpstreamFailure(t *testing.T) {
	eng, rt := newChainRig(t)
	c := rt.Cache

	T := newTestTile(rt)
	// A synthetic record on GPU 2 stands in for an upstream hop that will
	// never start; the chain 2 -> 1 waits on it.
	c.MarkInflight(T, 2)
	c.MarkInflight(T, 1)
	T.AddInflightWaiter(2, &chainHop{rt: rt, src: 2, dst: 1, next: notify(func() { t.Fatal("done fired on a failed chain") })})

	bang := errors.New("upstream hop failed")
	c.CancelInflight(T, 2, bang)
	eng.Run()

	if T.InflightTo(1) {
		t.Fatal("downstream under-transfer record leaked after upstream cancellation")
	}
	if err := rt.Err(); !errors.Is(err, bang) {
		t.Fatalf("run error = %v, want the upstream cancellation cause", err)
	}
}
