package cache

import (
	"math/rand"
	"testing"

	"xkblas/internal/check"
	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// Randomized coherence fuzz: drive legal sequences of transfers, writes,
// flushes and invalidations against a small-memory platform and check the
// protocol invariants after every simulated step:
//
//  1. single-writer: at most one dirty replica, and host-invalid implies
//     exactly one dirty replica exists;
//  2. memory accounting: per-device pool usage equals the sum of resident
//     replica footprints;
//  3. functional coherence: any valid replica holds the same bytes as the
//     latest version;
//  4. set bookkeeping: a tile's valid bit for GPU d is set exactly when a
//     replica record is present on d and valid, and its moving bit exactly
//     when an under-transfer record to d is present.
func TestCacheCoherenceFuzz(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		fuzzOnce(t, seed)
	}
}

type fuzzState struct {
	eng   *sim.Engine
	plat  *device.Platform
	c     *Cache
	tiles []*Tile
	// version counters: what the latest write stamped into the tile.
	version []int
}

func fuzzOnce(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	// Small pools force evictions.
	const nb = 16
	tileBytes := int64(nb * nb * 8)
	for _, g := range plat.GPUs {
		g.Mem = device.NewMemPool(tileBytes*3 + 16)
	}
	c := New(plat, true)
	// Record-mode auditor: every transition the fuzzer drives is also
	// replayed against the shadow protocol model.
	audit := check.New(false)
	c.Audit = audit
	st := &fuzzState{eng: eng, plat: plat, c: c}
	const nTiles = 6
	for i := 0; i < nTiles; i++ {
		v := matrix.New(nb, nb)
		for x := range v.Data {
			v.Data[x] = float64(i)
		}
		st.tiles = append(st.tiles, c.NewTile(TileKey{Mat: MatrixID(i)}, v))
		st.version = append(st.version, 0)
	}

	for step := 0; step < 300; step++ {
		tl := st.tiles[rng.Intn(nTiles)]
		dev := topology.DeviceID(rng.Intn(8))
		switch rng.Intn(5) {
		case 0: // fetch to dev from any legal source
			if tl.ValidOn(dev) || tl.InflightTo(dev) {
				break
			}
			src := topology.Host
			if gs := tl.ValidGPUs(); !gs.Empty() && rng.Intn(2) == 0 {
				ms := members(gs)
				src = ms[rng.Intn(len(ms))]
			} else if !tl.HostValid() {
				if d := tl.DirtyOn(); d >= 0 {
					src = d
				} else {
					break // only copy is in flight
				}
			}
			_ = c.StartTransfer(tl, src, dev, nil)
		case 1: // write on a device holding a valid replica
			if !tl.ValidOn(dev) || tl.InflightTo(dev) {
				break
			}
			// The dependency layer guarantees a writer never races an
			// in-flight read or flush of the same tile; the fuzzer must
			// respect the same precondition.
			if !tl.InflightDsts().Empty() || tl.flushing {
				break
			}
			pinned := false
			for d, r := range tl.reps {
				if r != nil && topology.DeviceID(d) != dev && r.pins > 0 {
					pinned = true
				}
			}
			if pinned {
				break
			}
			idx := indexOf(st.tiles, tl)
			st.version[idx]++
			buf := c.DeviceBuf(tl, dev)
			for x := range buf.Data[:nb*nb] {
				buf.Data[x] = float64(idx) + float64(st.version[idx])*1000
			}
			c.MarkDirty(tl, dev)
		case 2: // flush
			c.FlushToHost(tl, nil)
		case 3: // invalidate (host must be valid, no replica busy)
			if !tl.HostValid() || !tl.InflightDsts().Empty() {
				break
			}
			busy := false
			for gs := tl.ValidGPUs(); !gs.Empty(); gs = gs.Rest() {
				if tl.reps[gs.First()].pins > 0 {
					busy = true
				}
			}
			if !busy {
				c.Invalidate(tl)
			}
		case 4: // run the engine forward
			st.eng.RunUntil(st.eng.Now() + sim.Time(rng.Float64()*1e-3))
		}
		checkInvariants(t, st, seed, step)
	}
	st.eng.Run()
	checkInvariants(t, st, seed, -1)
	// Final coherence: flush everything and verify contents.
	for i, tl := range st.tiles {
		c.FlushToHost(tl, nil)
		_ = i
	}
	st.eng.Run()
	for i, tl := range st.tiles {
		want := float64(i)
		if st.version[i] > 0 {
			want = float64(i) + float64(st.version[i])*1000
		}
		if got := tl.Host.At(0, 0); got != want {
			t.Fatalf("seed %d: tile %d final host value %g, want %g", seed, i, got, want)
		}
	}
	// Quiescent state: everything flushed and settled, so the auditor's
	// drain checks must hold, and the whole run must be violation-free.
	c.AuditDrain()
	if !audit.Ok() {
		t.Fatalf("seed %d: auditor flagged %d violations; first: %v",
			seed, len(audit.Violations()), audit.Violations()[0])
	}
	if audit.Events() == 0 {
		t.Fatalf("seed %d: auditor saw no events — hooks not wired", seed)
	}
}

func indexOf(ts []*Tile, tl *Tile) int {
	for i, x := range ts {
		if x == tl {
			return i
		}
	}
	return -1
}

func checkInvariants(t *testing.T, st *fuzzState, seed int64, step int) {
	t.Helper()
	used := make(map[topology.DeviceID]int64)
	for i, tl := range st.tiles {
		for d := topology.DeviceID(0); d < topology.MaxGPUs; d++ {
			var r *replica
			var inf *Inflight
			if int(d) < len(tl.reps) {
				r, inf = tl.reps[d], tl.inflight[d]
			}
			if got, want := tl.valid.Has(d), r != nil && r.valid; got != want {
				t.Fatalf("seed %d step %d: tile %d valid bit %v on %d, replica present and valid %v",
					seed, step, i, got, d, want)
			}
			if got, want := tl.moving.Has(d), inf != nil; got != want {
				t.Fatalf("seed %d step %d: tile %d moving bit %v on %d, inflight record present %v",
					seed, step, i, got, d, want)
			}
		}
		dirty := 0
		for di, r := range tl.reps {
			if r == nil {
				continue
			}
			d := topology.DeviceID(di)
			used[d] += tl.Bytes
			if r.dirty {
				if !r.valid {
					t.Fatalf("seed %d step %d: tile %d dirty but invalid on %d", seed, step, i, d)
				}
				dirty++
			}
		}
		if dirty > 1 {
			t.Fatalf("seed %d step %d: tile %d has %d dirty replicas", seed, step, i, dirty)
		}
		if !tl.HostValid() && dirty != 1 {
			t.Fatalf("seed %d step %d: tile %d host-invalid with %d dirty replicas", seed, step, i, dirty)
		}
	}
	for d, g := range st.plat.GPUs {
		if g.Mem.Used() != used[topology.DeviceID(d)] {
			t.Fatalf("seed %d step %d: GPU %d pool usage %d != replica sum %d",
				seed, step, d, g.Mem.Used(), used[topology.DeviceID(d)])
		}
	}
}
