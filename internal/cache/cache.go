// Package cache implements the XKaapi multi-GPU software cache of §III-A:
// every tile of a registered matrix is tracked with the set of devices
// holding a valid replica, a single-writer dirty state (a simplified MOSI
// protocol), and — the metadata extension of §III-C — an *under-transfer*
// state recording replicas currently in flight to a GPU, which the
// optimistic heuristic chains on instead of re-reading host memory.
//
// The cache also owns device memory: replicas are allocated from the GPU
// memory pools and evicted in LRU order with read-only (clean) replicas
// evicted first, XKaapi's eviction policy.
//
// In functional mode the cache moves real float64 tile data so numerics can
// be verified end-to-end; in timing mode replicas are metadata only.
package cache

import (
	"errors"
	"fmt"

	"xkblas/internal/check"
	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/metrics"
	"xkblas/internal/policy"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// ErrDeviceOOM is the sentinel matched by errors.Is when a device
// allocation fails because nothing more can be evicted: every resident
// replica is pinned, dirty or under transfer. Callers surface it as a
// per-run failure instead of crashing the sweep.
var ErrDeviceOOM = errors.New("device out of memory")

// OOMError carries the tile/device context of a failed device allocation.
type OOMError struct {
	Dev                  topology.DeviceID
	Key                  TileKey
	Need, Used, Capacity int64
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("cache: GPU %d out of memory for %v: need %d bytes, used %d/%d and the remainder is pinned, dirty or under transfer",
		e.Dev, e.Key, e.Need, e.Used, e.Capacity)
}

// Is reports sentinel identity for errors.Is(err, ErrDeviceOOM).
func (e *OOMError) Is(target error) bool { return target == ErrDeviceOOM }

// MatrixID identifies a registered matrix.
type MatrixID int

// TileKey identifies one tile of one registered matrix.
type TileKey struct {
	Mat  MatrixID
	I, J int
}

func (k TileKey) String() string { return fmt.Sprintf("m%d[%d,%d]", k.Mat, k.I, k.J) }

// TransferKind classifies a data movement for tracing (the categories of
// Fig. 6/7: memcpy HtoD, DtoH, PtoP).
type TransferKind int

const (
	HostToDevice TransferKind = iota
	DeviceToHost
	PeerToPeer
)

func (k TransferKind) String() string {
	switch k {
	case HostToDevice:
		return "HtoD"
	case DeviceToHost:
		return "DtoH"
	case PeerToPeer:
		return "PtoP"
	default:
		return "?"
	}
}

// Observer receives completed-transfer notifications; the trace recorder
// implements it.
type Observer interface {
	OnTransfer(kind TransferKind, src, dst topology.DeviceID, bytes int64, start, end sim.Time)
}

// replica is the per-device state of one tile. Replicas come from a
// per-cache free list and carry their own LRU linkage (an intrusive doubly
// linked list), so replica churn performs no heap allocation once the pool
// is warm.
type replica struct {
	valid bool
	dirty bool
	pins  int
	buf   matrix.View // dense device copy (functional mode only)

	// Intrusive LRU linkage: position in the device's recency list, plus
	// the back-references the eviction walk needs.
	tile       *Tile
	prev, next *replica
}

// lruList is an intrusive doubly linked recency list (front = LRU victim,
// back = most recently used). It replaces container/list: no per-node
// Element allocation, and nodes recycle with their replicas.
type lruList struct {
	head, tail *replica
}

func (l *lruList) pushBack(r *replica) {
	r.prev, r.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = r
	} else {
		l.head = r
	}
	l.tail = r
}

func (l *lruList) remove(r *replica) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		l.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		l.tail = r.prev
	}
	r.prev, r.next = nil, nil
}

func (l *lruList) moveToBack(r *replica) {
	if l.tail == r {
		return
	}
	l.remove(r)
	l.pushBack(r)
}

// Waiter is notified when a replica it waits for lands. For a transfer to
// a GPU, dev is the destination and err is nil once the replica is valid
// there, or the cause when the chain feeding it was cancelled (see
// CancelInflight). For a write-back, dev is topology.Host and err is nil.
// Waiters are notified in registration order. The runtime's tasks and
// chain hops implement it, so registering a waiter allocates no closure.
type Waiter interface {
	Arrived(t *Tile, dev topology.DeviceID, err error)
}

// Inflight records a transfer (or a chained wait) whose payload is heading
// to a device; waiters are notified once the replica is valid there or the
// chain feeding it fails. A record may exist before the physical transfer
// starts: the optimistic heuristic marks the destination as under-transfer
// while it waits for the upstream hop.
//
// A record is unique per (tile, destination) while it lives, so once its
// transfer starts it doubles as that transfer's sim.JobDone, carrying the
// cache, tile and source the completion needs. recycleInflight clears them:
// a stale completion panics instead of landing on a reused record.
type Inflight struct {
	Dst     topology.DeviceID
	started bool
	waiters []Waiter

	c    *Cache
	tile *Tile
	src  topology.DeviceID
}

// JobDone implements sim.JobDone: the transfer's payload has arrived.
func (inf *Inflight) JobDone(start, end sim.Time) {
	inf.c.completeTransfer(inf, start, end)
}

// Tile is the cache record of one matrix tile.
type Tile struct {
	Key   TileKey
	M, N  int
	Bytes int64

	// Slot is the tile's dense index in the cache's arena: unique among the
	// cache's live tiles and stable until Cache.Reset, which restarts the
	// numbering at 0. The runtime indexes its per-tile dependency rows by it.
	Slot int

	// Host is the authoritative LAPACK-layout sub-view in host memory
	// (nil data in timing mode).
	Host matrix.View

	// Owner is the owner-computes device; -1 until assigned.
	Owner topology.DeviceID

	hostValid bool

	// reps[d] is GPU d's replica record and inflight[d] the under-transfer
	// record to GPU d, nil when absent. Both are sized to the platform's GPU
	// count once, when the arena first builds the tile. valid holds the GPUs
	// whose replica is present and valid, moving the GPUs with an
	// under-transfer record, so set queries never scan the slices.
	reps     []*replica
	inflight []*Inflight
	valid    topology.DeviceSet
	moving   topology.DeviceSet

	flushing  bool
	flushWait []Waiter
	// wb is the completion record of the tile's write-back. A tile has at
	// most one write-back in flight (flushing), so one record per tile
	// serves every flush.
	wb writeBack
}

// writeBack is a tile's write-back completion record (sim.JobDone).
type writeBack struct {
	c   *Cache
	t   *Tile
	dev topology.DeviceID
}

// JobDone implements sim.JobDone: the dirty replica reached host memory.
func (w *writeBack) JobDone(start, end sim.Time) {
	w.c.completeFlush(w.t, w.dev, start, end)
}

// Stats aggregates cache traffic. Hits/Misses/InflightWaits are counted by
// the runtime's fetch path through NoteHit/NoteMiss/NoteInflightWait: a hit
// finds a valid replica already on the requesting device, a miss requires a
// transfer, and an inflight-wait piggybacks on a transfer some other task
// already started.
type Stats struct {
	H2DBytes, D2HBytes, P2PBytes int64
	H2DCount, D2HCount, P2PCount int64
	Evictions                    int64
	Hits, Misses, InflightWaits  int64

	// RouteBytes/RouteCount key the same traffic by the link class of the
	// routed fabric path each transfer crossed (the class of its slowest
	// charged hop): host transfers land in the class of their host route
	// (PCIe on a DGX-1, NVLink-host on Summit, Net from a remote node of a
	// multi-node fleet), peer transfers in their peer-route class. The
	// arrays are fixed-shape so snapshots of different platforms stay
	// comparable.
	RouteBytes [topology.LinkKindCount]int64
	RouteCount [topology.LinkKindCount]int64
}

// Cache is the multi-GPU software cache.
type Cache struct {
	Plat       *device.Platform
	Functional bool
	Observer   Observer

	// Evictor decides which replicas leave device memory; nil behaves as
	// policy.LRUReadOnlyFirst (XKaapi's default).
	Evictor policy.Evictor

	// Counters, when non-nil, receives the eviction decision counters.
	Counters *policy.Counters

	// Audit, when non-nil, receives every state transition for coherence
	// verification (the `internal/check` invariant auditor). Auditing is
	// pure observation and never perturbs timings.
	Audit *check.Auditor

	nextMat MatrixID
	lru     []lruList // per device
	stats   Stats

	// Arena state: every live tile is in allTiles; tileFree/repFree/infFree
	// recycle records so steady-state registration, replica churn and
	// transfer tracking perform no heap allocation. tilesLiveMax is the
	// arena's high-water mark, published as cache.tiles_live_max.
	allTiles     []*Tile
	tileFree     []*Tile
	repFree      []*replica
	infFree      []*Inflight
	tilesLiveMax int
}

// New creates a cache over a simulated platform. functional selects whether
// tile payloads carry real data.
func New(plat *device.Platform, functional bool) *Cache {
	c := &Cache{Plat: plat, Functional: functional, Evictor: policy.LRUReadOnlyFirst{}}
	c.lru = make([]lruList, len(plat.GPUs))
	return c
}

// Reset discards every tile, replica and under-transfer record and recycles
// them into the cache's free lists, returning the cache to its
// freshly-built state (matrix ids restart at zero) while keeping arena
// capacity. Every Tile pointer previously handed out becomes invalid: the
// next registrations reuse the recycled records. Run-scoped attachments
// (Observer, Audit) are dropped; traffic stats are cleared. The engine must
// be quiescent and the device pools are NOT freed here — reset them through
// Platform.Reset.
func (c *Cache) Reset() {
	for _, t := range c.allTiles {
		for d, r := range t.reps {
			if r != nil {
				t.reps[d] = nil
				c.recycleReplica(r)
			}
		}
		for d, inf := range t.inflight {
			if inf != nil {
				t.inflight[d] = nil
				c.recycleInflight(inf)
			}
		}
		t.valid, t.moving = 0, 0
		clear(t.flushWait)
		t.flushWait = t.flushWait[:0]
		t.Host = matrix.View{}
		c.tileFree = append(c.tileFree, t)
	}
	c.allTiles = c.allTiles[:0]
	for i := range c.lru {
		c.lru[i] = lruList{}
	}
	c.nextMat = 0
	c.stats = Stats{}
	c.tilesLiveMax = 0
	c.Observer = nil
	c.Audit = nil
}

// recycleReplica clears a replica record and pools it. The functional-mode
// buffer is kept: a later replica of the same tile shape reuses it.
func (c *Cache) recycleReplica(r *replica) {
	r.valid, r.dirty, r.pins = false, false, 0
	r.tile, r.prev, r.next = nil, nil, nil
	c.repFree = append(c.repFree, r)
}

// recycleInflight clears an under-transfer record and pools it. Callers
// must have fired (or abandoned) its waiters first.
func (c *Cache) recycleInflight(inf *Inflight) {
	for i := range inf.waiters {
		inf.waiters[i] = nil
	}
	inf.waiters = inf.waiters[:0]
	inf.started = false
	inf.c, inf.tile = nil, nil
	c.infFree = append(c.infFree, inf)
}

// newInflight pops a recycled under-transfer record (or builds one) for dst.
func (c *Cache) newInflight(dst topology.DeviceID) *Inflight {
	var inf *Inflight
	if n := len(c.infFree); n > 0 {
		inf = c.infFree[n-1]
		c.infFree[n-1] = nil
		c.infFree = c.infFree[:n-1]
		inf.Dst = dst
	} else {
		inf = &Inflight{Dst: dst}
	}
	return inf
}

// TilesLiveMax reports the high-water mark of live (registered, not reset)
// tiles — the tile arena's footprint.
func (c *Cache) TilesLiveMax() int { return c.tilesLiveMax }

// Stats returns a copy of the traffic counters.
func (c *Cache) Stats() Stats { return c.stats }

// NoteHit records an input fetch satisfied by a valid local replica.
func (c *Cache) NoteHit() { c.stats.Hits++ }

// NoteMiss records an input fetch that needed a transfer.
func (c *Cache) NoteMiss() { c.stats.Misses++ }

// NoteInflightWait records a fetch that piggybacked on a transfer already
// in flight to the requesting device.
func (c *Cache) NoteInflightWait() { c.stats.InflightWaits++ }

// PublishMetrics stores the traffic counters into reg under the "cache."
// prefix. Store (not Add) keeps publication idempotent, so it may run at
// every collection point. A nil registry is a no-op.
func (c *Cache) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s := c.stats
	reg.Counter("cache.hits").Store(s.Hits)
	reg.Counter("cache.misses").Store(s.Misses)
	reg.Counter("cache.inflight_waits").Store(s.InflightWaits)
	reg.Counter("cache.evictions").Store(s.Evictions)
	reg.Counter("cache.h2d.bytes").Store(s.H2DBytes)
	reg.Counter("cache.h2d.count").Store(s.H2DCount)
	reg.Counter("cache.d2h.bytes").Store(s.D2HBytes)
	reg.Counter("cache.d2h.count").Store(s.D2HCount)
	reg.Counter("cache.p2p.bytes").Store(s.P2PBytes)
	reg.Counter("cache.p2p.count").Store(s.P2PCount)
	// Route-class rollups publish every kind, zeros included, so snapshot
	// shape is platform-independent and deterministic.
	for k := topology.LinkNone + 1; k < topology.LinkKindCount; k++ {
		reg.Counter("cache.route." + k.MetricName() + ".bytes").Store(s.RouteBytes[k])
		reg.Counter("cache.route." + k.MetricName() + ".count").Store(s.RouteCount[k])
	}
	reg.Gauge("cache.tiles_live_max").Set(float64(c.tilesLiveMax))
}

// NewMatrixID reserves a fresh matrix identifier.
func (c *Cache) NewMatrixID() MatrixID {
	id := c.nextMat
	c.nextMat++
	return id
}

// NewTile registers a tile backed by the given host sub-view and assigns
// it the next arena slot. Host data is initially valid on the host only.
// Tiles come from the cache's arena: a record recycled by Reset is reused
// (with its per-device slices), so repeated registrations on a reused
// runtime allocate nothing in steady state.
func (c *Cache) NewTile(key TileKey, host matrix.View) *Tile {
	var t *Tile
	if n := len(c.tileFree); n > 0 {
		t = c.tileFree[n-1]
		c.tileFree[n-1] = nil
		c.tileFree = c.tileFree[:n-1]
		t.Key, t.M, t.N, t.Bytes, t.Host = key, host.M, host.N, host.Bytes(), host
		t.Owner = -1
		t.hostValid = true
		t.flushing = false
	} else {
		n := len(c.Plat.GPUs)
		t = &Tile{
			Key:       key,
			M:         host.M,
			N:         host.N,
			Bytes:     host.Bytes(),
			Host:      host,
			Owner:     -1,
			hostValid: true,
			reps:      make([]*replica, n),
			inflight:  make([]*Inflight, n),
		}
		t.wb = writeBack{c: c, t: t}
	}
	t.Slot = len(c.allTiles)
	c.allTiles = append(c.allTiles, t)
	if len(c.allTiles) > c.tilesLiveMax {
		c.tilesLiveMax = len(c.allTiles)
	}
	return t
}

// HostValid reports whether the host copy is current.
func (t *Tile) HostValid() bool { return t.hostValid }

// ValidOn reports whether dev holds a valid replica.
func (t *Tile) ValidOn(dev topology.DeviceID) bool { return t.valid.Has(dev) }

// DirtyOn reports the device holding the sole modified replica, or -1.
func (t *Tile) DirtyOn() topology.DeviceID {
	for s := t.valid; !s.Empty(); s = s.Rest() {
		if d := s.First(); t.reps[d].dirty {
			return d
		}
	}
	return -1
}

// ValidGPUs reports the devices holding a valid replica.
func (t *Tile) ValidGPUs() topology.DeviceSet { return t.valid }

// InflightDsts reports the devices with a replica under transfer.
func (t *Tile) InflightDsts() topology.DeviceSet { return t.moving }

// InflightTo reports whether a transfer to dev is in progress.
func (t *Tile) InflightTo(dev topology.DeviceID) bool { return t.moving.Has(dev) }

// InflightStarted reports whether the under-transfer record to dev exists
// and its physical transfer is already on the wire. A registered record
// that has not started is a synthetic chain mark, the only kind
// CancelInflight may remove; the cancellation sweep uses this to tell the
// two apart.
func (t *Tile) InflightStarted(dev topology.DeviceID) bool {
	return t.moving.Has(dev) && t.inflight[dev].started
}

// setValid marks dev's replica valid, keeping the valid set in step.
func (t *Tile) setValid(dev topology.DeviceID, r *replica) {
	r.valid = true
	t.valid = t.valid.With(dev)
}

// setInflight registers (inf != nil) or clears (inf == nil) the
// under-transfer record to dev, keeping the moving set in step.
func (t *Tile) setInflight(dev topology.DeviceID, inf *Inflight) {
	t.inflight[dev] = inf
	if inf != nil {
		t.moving = t.moving.With(dev)
	} else {
		t.moving = t.moving.Without(dev)
	}
}

// SizeBytes implements policy.TileView.
func (t *Tile) SizeBytes() int64 { return t.Bytes }

// HomeOwner implements policy.TileView: the owner-computes home device.
func (t *Tile) HomeOwner() topology.DeviceID { return t.Owner }

// SetHomeOwner implements policy.TileView.
func (t *Tile) SetHomeOwner(dev topology.DeviceID) { t.Owner = dev }

// Coords implements policy.TileView: the tile-grid position.
func (t *Tile) Coords() (i, j int) { return t.Key.I, t.Key.J }

// CheckID converts the tile key to the auditor's matrix-agnostic id.
func (t *Tile) CheckID() check.TileID {
	return check.TileID{Mat: int(t.Key.Mat), I: t.Key.I, J: t.Key.J}
}

// AddInflightWaiter registers w to be notified when the pending transfer
// to dev completes (err == nil) or the chain feeding it is cancelled (err
// != nil). It panics if no transfer to dev is in flight.
func (t *Tile) AddInflightWaiter(dev topology.DeviceID, w Waiter) {
	inf := t.inflight[dev]
	if inf == nil {
		panic(fmt.Sprintf("cache: no inflight to %d for %v", dev, t.Key))
	}
	inf.waiters = append(inf.waiters, w)
}

// Pin prevents the replica on dev from being evicted. Valid replica
// required.
func (c *Cache) Pin(t *Tile, dev topology.DeviceID) {
	r := t.reps[dev]
	if r == nil || !r.valid {
		panic(fmt.Sprintf("cache: pin of invalid replica %v on %d", t.Key, dev))
	}
	if c.Audit != nil {
		c.Audit.OnPin(t.CheckID(), dev)
	}
	r.pins++
}

// Unpin releases one pin.
func (c *Cache) Unpin(t *Tile, dev topology.DeviceID) {
	r := t.reps[dev]
	if r == nil || r.pins <= 0 {
		panic(fmt.Sprintf("cache: unbalanced unpin %v on %d", t.Key, dev))
	}
	if c.Audit != nil {
		c.Audit.OnUnpin(t.CheckID(), dev)
	}
	r.pins--
}

// Touch moves the replica to the most-recently-used position.
func (c *Cache) Touch(t *Tile, dev topology.DeviceID) {
	if r := t.reps[dev]; r != nil {
		c.lru[dev].moveToBack(r)
	}
}

// DeviceBuf returns the dense device replica view for kernel bodies
// (functional mode). The replica must be valid.
func (c *Cache) DeviceBuf(t *Tile, dev topology.DeviceID) matrix.View {
	r := t.reps[dev]
	if r == nil || !r.valid {
		panic(fmt.Sprintf("cache: no valid replica of %v on %d", t.Key, dev))
	}
	return r.buf
}

// ensureReplica allocates (evicting as needed) an invalid replica record
// with buffer space on dev. A failure is always an *OOMError (matched by
// errors.Is against ErrDeviceOOM): nothing evictable remained.
func (c *Cache) ensureReplica(t *Tile, dev topology.DeviceID) (*replica, error) {
	if r := t.reps[dev]; r != nil {
		return r, nil
	}
	pool := c.Plat.GPU(dev).Mem
	if !pool.Alloc(t.Bytes) {
		c.evict(dev, t.Bytes)
		if !pool.Alloc(t.Bytes) {
			return nil, &OOMError{Dev: dev, Key: t.Key, Need: t.Bytes,
				Used: pool.Used(), Capacity: pool.Capacity()}
		}
	}
	var r *replica
	if n := len(c.repFree); n > 0 {
		r = c.repFree[n-1]
		c.repFree[n-1] = nil
		c.repFree = c.repFree[:n-1]
	} else {
		r = &replica{}
	}
	if c.Functional && (r.buf.M != t.M || r.buf.N != t.N) {
		r.buf = matrix.New(t.M, t.N)
	}
	r.tile = t
	c.lru[dev].pushBack(r)
	t.reps[dev] = r
	if c.Audit != nil {
		c.Audit.OnAlloc(t.CheckID(), dev, t.Bytes, pool.Used())
	}
	return r, nil
}

// evict frees up to need bytes on dev by walking replicas in LRU order
// and consulting the eviction policy (default policy.LRUReadOnlyFirst:
// read-only data first; dirty replicas are never dropped silently since
// they hold the only copy). It frees what it can; the caller re-checks
// the pool.
func (c *Cache) evict(dev topology.DeviceID, need int64) {
	pool := c.Plat.GPU(dev).Mem
	ev := c.evictor()
	for r := c.lru[dev].head; r != nil && pool.Available() < need; {
		next := r.next
		cand := policy.EvictCandidate{
			Dirty:    r.dirty,
			Pinned:   r.pins > 0,
			Inflight: r.tile.InflightTo(dev),
		}
		if ev.ShouldEvict(cand) {
			if cand.Dirty {
				panic(fmt.Sprintf("cache: evictor %q would drop dirty replica %v@%d",
					ev.Name(), r.tile.Key, dev))
			}
			c.dropReplica(r.tile, dev, "eviction")
			c.stats.Evictions++
			if c.Counters != nil {
				c.Counters.EvictClean.Add(1)
			}
		} else if cand.Dirty && c.Counters != nil {
			c.Counters.EvictDirtySkipped.Add(1)
		}
		r = next
	}
}

// evictor resolves the active eviction policy (nil → XKaapi default).
func (c *Cache) evictor() policy.Evictor {
	if c.Evictor == nil {
		return policy.LRUReadOnlyFirst{}
	}
	return c.Evictor
}

// dropReplica removes the replica record and frees its memory. reason
// labels the transition for the auditor.
func (c *Cache) dropReplica(t *Tile, dev topology.DeviceID, reason string) {
	r := t.reps[dev]
	if r == nil {
		return
	}
	c.lru[dev].remove(r)
	pool := c.Plat.GPU(dev).Mem
	pool.Free(t.Bytes)
	t.reps[dev] = nil
	t.valid = t.valid.Without(dev)
	c.recycleReplica(r)
	if c.Audit != nil {
		c.Audit.OnDrop(t.CheckID(), dev, pool.Used(), reason)
	}
}

// StartTransfer begins moving the tile from src (a valid replica holder or
// Host) to GPU dst and registers the under-transfer state. w (may be nil)
// is notified, after any waiters already registered on dst, once the
// replica is valid there; a started transfer never delivers an error. The
// source replica is pinned for the duration.
func (c *Cache) StartTransfer(t *Tile, src, dst topology.DeviceID, w Waiter) error {
	if dst == topology.Host {
		panic("cache: use FlushToHost for device-to-host")
	}
	if t.ValidOn(dst) {
		panic(fmt.Sprintf("cache: transfer to already-valid replica %v on %d", t.Key, dst))
	}
	if t.InflightStarted(dst) {
		panic(fmt.Sprintf("cache: duplicate transfer of %v to %d", t.Key, dst))
	}
	if src == topology.Host {
		if !t.hostValid {
			return fmt.Errorf("cache: host copy of %v invalid", t.Key)
		}
	} else if !t.ValidOn(src) {
		return fmt.Errorf("cache: source %d has no valid replica of %v", src, t.Key)
	}
	if _, err := c.ensureReplica(t, dst); err != nil {
		return err
	}
	if src != topology.Host {
		c.Pin(t, src)
	}
	inf := t.inflight[dst]
	if inf == nil {
		inf = c.newInflight(dst)
		t.setInflight(dst, inf)
		if c.Audit != nil {
			c.Audit.OnInflightMark(t.CheckID(), dst, false)
		}
	}
	inf.started = true
	inf.c, inf.tile, inf.src = c, t, src
	if c.Audit != nil {
		c.Audit.OnTransferStart(t.CheckID(), src, dst)
	}
	if w != nil {
		inf.waiters = append(inf.waiters, w)
	}
	c.Plat.Transfer(src, dst, t.Bytes, inf)
	return nil
}

// completeTransfer lands the transfer that inf tracks: the replica becomes
// valid on its destination and the waiters are notified.
func (c *Cache) completeTransfer(inf *Inflight, start, end sim.Time) {
	t, src, dst := inf.tile, inf.src, inf.Dst
	kind := PeerToPeer
	if src == topology.Host {
		kind = HostToDevice
	}
	r := t.reps[dst]
	if r == nil {
		panic(fmt.Sprintf("cache: replica of %v on %d vanished mid-transfer", t.Key, dst))
	}
	if c.Functional {
		if src == topology.Host {
			// cudaMemcpy2D semantics of §III-A: the strided host sub-matrix
			// is compacted to a dense device tile (ld = m).
			r.buf.CopyFrom(t.Host)
		} else {
			r.buf.CopyFrom(c.DeviceBuf(t, src))
		}
	}
	t.setValid(dst, r)
	if c.Audit != nil {
		c.Audit.OnReplicaValid(t.CheckID(), dst, "transfer")
	}
	if src != topology.Host {
		c.Unpin(t, src)
	}
	switch kind {
	case HostToDevice:
		c.stats.H2DBytes += t.Bytes
		c.stats.H2DCount++
	case PeerToPeer:
		c.stats.P2PBytes += t.Bytes
		c.stats.P2PCount++
	}
	c.noteRoute(src, dst, t.Bytes)
	if c.Observer != nil {
		c.Observer.OnTransfer(kind, src, dst, t.Bytes, c.serviceStart(src, dst, t.Bytes, start, end), end)
	}
	t.setInflight(dst, nil)
	if c.Audit != nil {
		c.Audit.OnInflightResolve(t.CheckID(), dst)
	}
	c.Touch(t, dst)
	for _, w := range inf.waiters {
		w.Arrived(t, dst, nil)
	}
	// Recycle only after the waiter loop: a waiter may start a new transfer
	// that pops this very record from the pool, and recycling early would
	// let it scribble over the waiters slice mid-iteration.
	c.recycleInflight(inf)
}

// noteRoute counts a completed transfer against the link class of the
// routed path it crossed.
func (c *Cache) noteRoute(src, dst topology.DeviceID, bytes int64) {
	k := c.Plat.Topo.Link(src, dst).Kind
	c.stats.RouteBytes[k] += bytes
	c.stats.RouteCount[k]++
}

// serviceStart converts a transfer's [queued-start, delivery-end] interval
// into the DMA-busy interval an nvprof-style trace would report: the
// unloaded service time ending at delivery. Queueing behind other transfers
// on shared hops is thereby excluded from busy-time accounting (§IV-E).
func (c *Cache) serviceStart(src, dst topology.DeviceID, bytes int64, start, end sim.Time) sim.Time {
	s := end - c.Plat.TransferEstimate(src, dst, bytes)
	if s < start {
		return start
	}
	return s
}

// MarkInflight registers a synthetic under-transfer state to dst without
// starting a platform transfer yet; the optimistic heuristic uses it to
// chain a forward hop onto a pending arrival. The party that planned the
// chain must later either start the physical transfer to dst (making the
// replica valid resolves the record) or cancel the record with
// CancelInflight if the chain fails.
func (c *Cache) MarkInflight(t *Tile, dst topology.DeviceID) *Inflight {
	if t.InflightTo(dst) {
		panic(fmt.Sprintf("cache: duplicate inflight mark for %v on %d", t.Key, dst))
	}
	inf := c.newInflight(dst)
	t.setInflight(dst, inf)
	if c.Audit != nil {
		c.Audit.OnInflightMark(t.CheckID(), dst, true)
	}
	return inf
}

// CancelInflight removes a not-yet-started under-transfer record for dst —
// the synthetic mark of a failed optimistic chain — and notifies its
// waiters with err. Without this, an upstream-hop failure would leave
// InflightTo(dst) true forever: every later consumer on dst would
// piggyback on a transfer that can never complete, wedging the DAG.
// Cancelling a record whose physical transfer already started panics
// (physical transfers cannot fail in the model). Cancelling a missing
// record is a no-op.
func (c *Cache) CancelInflight(t *Tile, dst topology.DeviceID, err error) {
	inf := t.inflight[dst]
	if inf == nil {
		return
	}
	if inf.started {
		panic(fmt.Sprintf("cache: cancel of started transfer %v to %d", t.Key, dst))
	}
	t.setInflight(dst, nil)
	if c.Audit != nil {
		c.Audit.OnInflightCancel(t.CheckID(), dst)
	}
	for _, w := range inf.waiters {
		w.Arrived(t, dst, err)
	}
	// As in completeTransfer: recycle strictly after the waiters have fired.
	c.recycleInflight(inf)
}

// AllocRaw prepares a replica buffer on dev with undefined contents and
// marks it valid without a dirty transition: the caller is about to produce
// the tile's next version on dev (write-only kernel output) and will call
// MarkDirty once the kernel completes. The dependency layer guarantees no
// other consumer reads this version before then.
func (c *Cache) AllocRaw(t *Tile, dev topology.DeviceID) error {
	r, err := c.ensureReplica(t, dev)
	if err != nil {
		return err
	}
	t.setValid(dev, r)
	if c.Audit != nil {
		c.Audit.OnReplicaValid(t.CheckID(), dev, "alloc-raw")
	}
	return nil
}

// AllocForWrite prepares a writable replica on dev without any data
// movement (write-only access): the buffer is allocated and immediately
// marked valid+dirty, invalidating every other copy.
func (c *Cache) AllocForWrite(t *Tile, dev topology.DeviceID) error {
	r, err := c.ensureReplica(t, dev)
	if err != nil {
		return err
	}
	t.setValid(dev, r)
	if c.Audit != nil {
		c.Audit.OnReplicaValid(t.CheckID(), dev, "alloc-write")
	}
	c.MarkDirty(t, dev)
	return nil
}

// MarkDirty records that dev has modified its replica: every other replica
// and the host copy become invalid (single-writer MOSI transition).
func (c *Cache) MarkDirty(t *Tile, dev topology.DeviceID) {
	r := t.reps[dev]
	if r == nil || !r.valid {
		panic(fmt.Sprintf("cache: MarkDirty on invalid replica %v@%d", t.Key, dev))
	}
	for i, other := range t.reps {
		d := topology.DeviceID(i)
		if other == nil || d == dev {
			continue
		}
		if other.pins > 0 || t.InflightTo(d) {
			// A stale read in flight: the dependency layer must prevent
			// this; failing loudly beats silent corruption.
			panic(fmt.Sprintf("cache: invalidating in-use replica %v@%d", t.Key, d))
		}
		c.dropReplica(t, d, "write-invalidation")
	}
	r.dirty = true
	t.hostValid = false
	if c.Audit != nil {
		c.Audit.OnMarkDirty(t.CheckID(), dev)
	}
}

// FlushToHost writes the dirty replica back to host memory (DtoH path of
// Fig. 6), leaving the device replica valid and clean (Owned→Shared). w
// (may be nil) is notified with dev == topology.Host once the host copy is
// current; flushing an already-coherent tile notifies it immediately.
func (c *Cache) FlushToHost(t *Tile, w Waiter) {
	if t.hostValid {
		if w != nil {
			w.Arrived(t, topology.Host, nil)
		}
		return
	}
	dev := t.DirtyOn()
	if dev < 0 {
		panic(fmt.Sprintf("cache: %v host-invalid with no dirty replica", t.Key))
	}
	if w != nil {
		t.flushWait = append(t.flushWait, w)
	}
	if t.flushing {
		return
	}
	t.flushing = true
	c.Pin(t, dev)
	if c.Audit != nil {
		c.Audit.OnFlushStart(t.CheckID(), dev)
	}
	t.wb.dev = dev
	c.Plat.Transfer(dev, topology.Host, t.Bytes, &t.wb)
}

// completeFlush lands a write-back from dev and notifies the flush waiters.
func (c *Cache) completeFlush(t *Tile, dev topology.DeviceID, start, end sim.Time) {
	if c.Functional {
		t.Host.CopyFrom(c.DeviceBuf(t, dev))
	}
	c.Unpin(t, dev)
	r := t.reps[dev]
	r.dirty = false
	t.hostValid = true
	t.flushing = false
	if c.Audit != nil {
		c.Audit.OnFlushed(t.CheckID(), dev)
	}
	c.stats.D2HBytes += t.Bytes
	c.stats.D2HCount++
	c.noteRoute(dev, topology.Host, t.Bytes)
	if c.Observer != nil {
		c.Observer.OnTransfer(DeviceToHost, dev, topology.Host, t.Bytes,
			c.serviceStart(dev, topology.Host, t.Bytes, start, end), end)
	}
	// Detach the list before notifying: a waiter may start a new flush of
	// this tile, which must collect its own waiters. The backing array is
	// reused when no waiter did.
	ws := t.flushWait
	t.flushWait = nil
	for _, w := range ws {
		w.Arrived(t, topology.Host, nil)
	}
	clear(ws)
	if t.flushWait == nil {
		t.flushWait = ws[:0]
	}
}

// DropClean discards dev's replica if it is clean, unpinned and not under
// transfer; used to model streaming libraries (cuBLAS-XT) and per-panel
// re-broadcast (SLATE) that do not retain operands in device memory.
func (c *Cache) DropClean(t *Tile, dev topology.DeviceID) {
	r := t.reps[dev]
	if r == nil || r.dirty || r.pins > 0 || t.InflightTo(dev) {
		return
	}
	c.dropReplica(t, dev, "drop-clean")
}

// Invalidate drops every device replica of a clean tile (host must be
// valid); used when user code rewrites host data between calls.
func (c *Cache) Invalidate(t *Tile) {
	if !t.hostValid {
		panic(fmt.Sprintf("cache: invalidating %v whose only copy is on-device", t.Key))
	}
	for i, r := range t.reps {
		if r == nil {
			continue
		}
		d := topology.DeviceID(i)
		if r.pins > 0 || t.InflightTo(d) {
			panic(fmt.Sprintf("cache: invalidating in-use replica %v@%d", t.Key, d))
		}
		c.dropReplica(t, d, "invalidate")
	}
}

// AuditDrain, with an auditor attached, reports the final per-device pool
// occupancy and runs the quiescent-state checks (balanced pins, no stale
// inflight records, host validity consistent with DirtyOn). Call it only
// when the runtime has drained cleanly: a failed run legitimately leaves
// pins and inflight records unbalanced.
func (c *Cache) AuditDrain() {
	if c.Audit == nil {
		return
	}
	for i, g := range c.Plat.GPUs {
		c.Audit.PoolAtDrain(topology.DeviceID(i), g.Mem.Used())
	}
	c.Audit.OnDrain()
}

// AuditCancelledDrain, with an auditor attached, closes out a run that was
// cancelled mid-flight. The full quiescent checks do not apply — pins,
// under-transfer records and launched kernels legitimately remain at the
// abort point — but memory accounting is synchronous and must still match,
// so the per-device pools are verified before the drain is counted.
func (c *Cache) AuditCancelledDrain() {
	if c.Audit == nil {
		return
	}
	for i, g := range c.Plat.GPUs {
		c.Audit.PoolAtDrain(topology.DeviceID(i), g.Mem.Used())
	}
	c.Audit.OnCancelledDrain()
}
