package cache

import (
	"math/rand"
	"slices"
	"testing"

	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

func newTestCache(functional bool) (*sim.Engine, *Cache) {
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	return eng, New(plat, functional)
}

// waiterFunc adapts a closure to Waiter.
type waiterFunc func(err error)

func (f waiterFunc) Arrived(_ *Tile, _ topology.DeviceID, err error) { f(err) }

// notify adapts a closure that ignores the outcome to Waiter.
func notify(fn func()) Waiter { return waiterFunc(func(error) { fn() }) }

func hostTile(c *Cache, m, n int) *Tile {
	id := c.NewMatrixID()
	v := matrix.New(m, n)
	rng := rand.New(rand.NewSource(int64(id) + 1))
	v.FillRandom(rng)
	return c.NewTile(TileKey{Mat: id, I: 0, J: 0}, v)
}

func TestH2DTransferMovesData(t *testing.T) {
	eng, c := newTestCache(true)
	tl := hostTile(c, 8, 8)
	done := false
	if err := c.StartTransfer(tl, topology.Host, 2, notify(func() { done = true })); err != nil {
		t.Fatal(err)
	}
	if tl.ValidOn(2) {
		t.Fatal("replica valid before transfer completion")
	}
	if !tl.InflightTo(2) {
		t.Fatal("under-transfer state not recorded")
	}
	eng.Run()
	if !done || !tl.ValidOn(2) {
		t.Fatal("transfer did not complete")
	}
	if tl.InflightTo(2) {
		t.Fatal("inflight record not cleared")
	}
	if d := matrix.MaxAbsDiff(c.DeviceBuf(tl, 2), tl.Host); d != 0 {
		t.Fatalf("device data differs from host by %g", d)
	}
	st := c.Stats()
	if st.H2DCount != 1 || st.H2DBytes != tl.Bytes {
		t.Fatalf("stats = %+v", st)
	}
}

func TestP2PTransferAndCompaction(t *testing.T) {
	eng, c := newTestCache(true)
	// Tile with a strided host view (ld > m): device copy must be dense.
	id := c.NewMatrixID()
	parent := matrix.New(10, 10)
	parent.FillRandom(rand.New(rand.NewSource(3)))
	sub := parent.Sub(2, 3, 4, 5)
	tl := c.NewTile(TileKey{Mat: id}, sub)
	if err := c.StartTransfer(tl, topology.Host, 0, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	buf := c.DeviceBuf(tl, 0)
	if buf.LD != 4 {
		t.Fatalf("device tile ld = %d, want compacted 4 (§III-A)", buf.LD)
	}
	if err := c.StartTransfer(tl, 0, 3, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if d := matrix.MaxAbsDiff(c.DeviceBuf(tl, 3), sub); d != 0 {
		t.Fatalf("P2P data differs by %g", d)
	}
	if c.Stats().P2PCount != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestMarkDirtyInvalidatesOthers(t *testing.T) {
	eng, c := newTestCache(true)
	tl := hostTile(c, 4, 4)
	for _, d := range []topology.DeviceID{0, 1} {
		if err := c.StartTransfer(tl, topology.Host, d, nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	c.MarkDirty(tl, 0)
	if tl.HostValid() {
		t.Fatal("host still valid after device write")
	}
	if tl.ValidOn(1) {
		t.Fatal("stale replica survived write")
	}
	if tl.DirtyOn() != 0 {
		t.Fatalf("dirty on %d, want 0", tl.DirtyOn())
	}
	// Memory of the dropped replica must be reclaimed.
	if used := c.Plat.GPU(1).Mem.Used(); used != 0 {
		t.Fatalf("GPU 1 still holds %d bytes", used)
	}
}

func TestFlushToHostRestoresCoherence(t *testing.T) {
	eng, c := newTestCache(true)
	tl := hostTile(c, 4, 4)
	if err := c.StartTransfer(tl, topology.Host, 0, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	c.MarkDirty(tl, 0)
	c.DeviceBuf(tl, 0).Set(1, 1, 123.5)
	flushed := false
	c.FlushToHost(tl, notify(func() { flushed = true }))
	eng.Run()
	if !flushed || !tl.HostValid() {
		t.Fatal("flush did not complete")
	}
	if tl.Host.At(1, 1) != 123.5 {
		t.Fatal("dirty data not written back")
	}
	if tl.DirtyOn() != -1 {
		t.Fatal("replica should be clean after flush (Owned→Shared)")
	}
	if !tl.ValidOn(0) {
		t.Fatal("device replica should stay valid after flush")
	}
	// Flushing a coherent tile is a no-op that still fires done.
	immediate := false
	c.FlushToHost(tl, notify(func() { immediate = true }))
	if !immediate {
		t.Fatal("coherent flush should complete synchronously")
	}
}

func TestConcurrentFlushesCoalesce(t *testing.T) {
	eng, c := newTestCache(false)
	tl := hostTile(c, 64, 64)
	if err := c.StartTransfer(tl, topology.Host, 0, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	c.MarkDirty(tl, 0)
	n := 0
	c.FlushToHost(tl, notify(func() { n++ }))
	c.FlushToHost(tl, notify(func() { n++ }))
	eng.Run()
	if n != 2 {
		t.Fatalf("waiters fired %d times, want 2", n)
	}
	if c.Stats().D2HCount != 1 {
		t.Fatalf("flushes not coalesced: %d D2H transfers", c.Stats().D2HCount)
	}
}

func TestOptimisticChainViaMarkInflight(t *testing.T) {
	// The §III-C pattern: host→G0 in flight; consumer on G3 chains a
	// G0→G3 hop instead of a second host read.
	eng, c := newTestCache(true)
	tl := hostTile(c, 16, 16)
	if err := c.StartTransfer(tl, topology.Host, 0, nil); err != nil {
		t.Fatal(err)
	}
	c.MarkInflight(tl, 3) // destination now shows as under-transfer
	if !tl.InflightTo(3) {
		t.Fatal("synthetic inflight not visible")
	}
	arrived := false
	tl.AddInflightWaiter(0, waiterFunc(func(error) {
		if err := c.StartTransfer(tl, 0, 3, notify(func() { arrived = true })); err != nil {
			t.Fatal(err)
		}
	}))
	tl.AddInflightWaiter(3, waiterFunc(func(error) {}))
	eng.Run()
	if !arrived || !tl.ValidOn(3) {
		t.Fatal("chained transfer did not complete")
	}
	st := c.Stats()
	if st.H2DCount != 1 || st.P2PCount != 1 {
		t.Fatalf("want exactly one H2D + one P2P, got %+v", st)
	}
	if d := matrix.MaxAbsDiff(c.DeviceBuf(tl, 3), tl.Host); d != 0 {
		t.Fatalf("forwarded data differs by %g", d)
	}
}

func TestEvictionLRUCleanFirst(t *testing.T) {
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	// Shrink GPU 0's memory so two tiles fit but not three.
	tileBytes := int64(64 * 64 * 8)
	plat.GPUs[0].Mem = device.NewMemPool(2*tileBytes + 100)
	c := New(plat, false)
	mk := func() *Tile {
		return c.NewTile(TileKey{Mat: c.NewMatrixID()}, matrix.NewShape(64, 64))
	}
	t1, t2, t3 := mk(), mk(), mk()
	for _, tl := range []*Tile{t1, t2} {
		if err := c.StartTransfer(tl, topology.Host, 0, nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	c.Touch(t1, 0) // t2 becomes LRU
	if err := c.StartTransfer(t3, topology.Host, 0, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if t2.ValidOn(0) {
		t.Fatal("LRU replica (t2) should have been evicted")
	}
	if !t1.ValidOn(0) || !t3.ValidOn(0) {
		t.Fatal("wrong replica evicted")
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("eviction not counted")
	}
}

func TestEvictionSkipsDirtyAndPinned(t *testing.T) {
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	tileBytes := int64(64 * 64 * 8)
	plat.GPUs[0].Mem = device.NewMemPool(2*tileBytes + 100)
	c := New(plat, false)
	mk := func() *Tile {
		return c.NewTile(TileKey{Mat: c.NewMatrixID()}, matrix.NewShape(64, 64))
	}
	dirty, pinned, extra := mk(), mk(), mk()
	for _, tl := range []*Tile{dirty, pinned} {
		if err := c.StartTransfer(tl, topology.Host, 0, nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	c.MarkDirty(dirty, 0)
	c.Pin(pinned, 0)
	if err := c.StartTransfer(extra, topology.Host, 0, nil); err == nil {
		t.Fatal("expected out-of-memory: nothing evictable")
	}
	c.Unpin(pinned, 0)
	if err := c.StartTransfer(extra, topology.Host, 0, nil); err != nil {
		t.Fatalf("after unpin, eviction should succeed: %v", err)
	}
	eng.Run()
	if !dirty.ValidOn(0) {
		t.Fatal("dirty replica must never be evicted")
	}
	if pinned.ValidOn(0) {
		t.Fatal("clean unpinned replica should have been evicted")
	}
}

// members lists a device set in its First/Rest iteration order.
func members(s topology.DeviceSet) []topology.DeviceID {
	var out []topology.DeviceID
	for ; !s.Empty(); s = s.Rest() {
		out = append(out, s.First())
	}
	return out
}

func TestValidGPUsSortedAndComplete(t *testing.T) {
	eng, c := newTestCache(false)
	tl := hostTile(c, 8, 8)
	for _, d := range []topology.DeviceID{5, 1, 3} {
		if err := c.StartTransfer(tl, topology.Host, d, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := []topology.DeviceID{1, 3, 5}
	if got := members(tl.InflightDsts()); !slices.Equal(got, want) {
		t.Fatalf("in flight: InflightDsts = %v, want %v", got, want)
	}
	if got := tl.ValidGPUs(); !got.Empty() {
		t.Fatalf("in flight: ValidGPUs = %v, want empty", members(got))
	}
	eng.Run()
	if got := members(tl.ValidGPUs()); !slices.Equal(got, want) {
		t.Fatalf("ValidGPUs = %v, want %v", got, want)
	}
	if got := tl.InflightDsts(); !got.Empty() {
		t.Fatalf("InflightDsts = %v after the transfers landed, want empty", members(got))
	}
}

func TestDoubleTransferToSameDevicePanics(t *testing.T) {
	eng, c := newTestCache(false)
	tl := hostTile(c, 8, 8)
	if err := c.StartTransfer(tl, topology.Host, 0, nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate transfer")
		}
		eng.Run()
	}()
	_ = c.StartTransfer(tl, topology.Host, 0, nil)
}

func TestDropCleanRespectsState(t *testing.T) {
	eng, c := newTestCache(false)
	tl := hostTile(c, 8, 8)
	if err := c.StartTransfer(tl, topology.Host, 0, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Pinned replicas survive.
	c.Pin(tl, 0)
	c.DropClean(tl, 0)
	if !tl.ValidOn(0) {
		t.Fatal("pinned replica dropped")
	}
	c.Unpin(tl, 0)
	// Dirty replicas survive.
	c.MarkDirty(tl, 0)
	c.DropClean(tl, 0)
	if !tl.ValidOn(0) {
		t.Fatal("dirty replica dropped")
	}
	// Clean + unpinned drops and frees memory.
	c.FlushToHost(tl, nil)
	eng.Run()
	c.DropClean(tl, 0)
	if tl.ValidOn(0) {
		t.Fatal("clean replica not dropped")
	}
	if c.Plat.GPU(0).Mem.Used() != 0 {
		t.Fatal("memory not reclaimed")
	}
	// Dropping a nonexistent replica is a no-op.
	c.DropClean(tl, 3)
}

func TestTraceServiceIntervalExcludesQueueing(t *testing.T) {
	// Two H2D transfers to the same GPU: the second queues behind the
	// first, but its recorded busy interval must be the unloaded service
	// time, not the wait.
	eng, c := newTestCache(false)
	rec := &intervalRecorder{}
	c.Observer = rec
	t1 := hostTile(c, 256, 256)
	t2 := hostTile(c, 256, 256)
	if err := c.StartTransfer(t1, topology.Host, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.StartTransfer(t2, topology.Host, 0, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(rec.durs) != 2 {
		t.Fatalf("recorded %d transfers", len(rec.durs))
	}
	ratio := float64(rec.durs[1] / rec.durs[0])
	if ratio > 1.05 || ratio < 0.95 {
		t.Fatalf("queued transfer busy-time inflated: %v vs %v", rec.durs[1], rec.durs[0])
	}
}

type intervalRecorder struct {
	durs []sim.Time
}

func (r *intervalRecorder) OnTransfer(_ TransferKind, _, _ topology.DeviceID, _ int64, start, end sim.Time) {
	r.durs = append(r.durs, end-start)
}
