package policy

import (
	"testing"

	"xkblas/internal/topology"
)

// fakeTile is a minimal TileView for driving the selectors directly.
type fakeTile struct {
	valid    topology.DeviceSet
	host     bool
	dirty    topology.DeviceID
	inflight topology.DeviceSet
	owner    topology.DeviceID
	i, j     int
}

func newFakeTile() *fakeTile { return &fakeTile{dirty: -1, owner: -1} }

// devs builds a device set from ids.
func devs(ids ...topology.DeviceID) topology.DeviceSet {
	var s topology.DeviceSet
	for _, d := range ids {
		s = s.With(d)
	}
	return s
}

func (t *fakeTile) ValidGPUs() topology.DeviceSet         { return t.valid }
func (t *fakeTile) HostValid() bool                       { return t.host }
func (t *fakeTile) DirtyOn() topology.DeviceID            { return t.dirty }
func (t *fakeTile) InflightDsts() topology.DeviceSet      { return t.inflight }
func (t *fakeTile) ValidOn(dev topology.DeviceID) bool    { return t.valid.Has(dev) }
func (t *fakeTile) InflightTo(dev topology.DeviceID) bool { return t.inflight.Has(dev) }

func (t *fakeTile) SizeBytes() int64                   { return 1 << 20 }
func (t *fakeTile) HomeOwner() topology.DeviceID       { return t.owner }
func (t *fakeTile) SetHomeOwner(dev topology.DeviceID) { t.owner = dev }
func (t *fakeTile) Coords() (int, int)                 { return t.i, t.j }

func pick(t *testing.T, sel SourceSelector, tile TileView, dst topology.DeviceID, topo *topology.Platform, c *Decisions) (topology.DeviceID, bool) {
	t.Helper()
	src, chained, ok := SelectSource(sel, topo, tile, dst, c)
	if !ok {
		t.Fatalf("SelectSource(%s) found no copy", sel.Name())
	}
	return src, chained
}

func TestSameSwitchOnDGX2(t *testing.T) {
	// DGX-2 pairs GPUs per PCIe switch (switch i holds GPUs 2i, 2i+1), so
	// the BLASX restriction on the flat NVSwitch fabric follows the PCIe
	// pairing, not the (uniform) NVLink crossbar.
	topo := topology.DGX2()
	sel := SameSwitch{Base: LowestID{}}

	tile := newFakeTile()
	tile.valid = devs(1, 2, 3)
	tile.host = true
	if src, chained := pick(t, sel, tile, 0, topo, &Decisions{}); chained || src != 1 {
		t.Fatalf("dst 0 with valid {1,2,3}: got (%d,%v), want (1,false): only GPU 1 shares switch 0", src, chained)
	}

	// No replica behind the destination's switch: fall back to the host
	// read even though peers 2 and 3 hold valid copies.
	tile.valid = devs(2, 3)
	if src, chained := pick(t, sel, tile, 0, topo, &Decisions{}); chained || src != topology.Host {
		t.Fatalf("dst 0 with valid {2,3}: got (%d,%v), want host", src, chained)
	}
}

func TestSameSwitchEveryPeerOneSwitch(t *testing.T) {
	// Edge case: a 2-GPU DGX-2 slice has a single PCIe switch, so the
	// same-switch filter never rejects the one peer — SameSwitch degrades
	// to its base selector.
	topo := topology.DGX2WithGPUs(2)
	if !topo.SameSwitch(0, 1) {
		t.Fatal("2-GPU DGX-2 slice must have both GPUs on one switch")
	}
	sel := SameSwitch{Base: LowestID{}}
	tile := newFakeTile()
	tile.valid = devs(1)
	tile.host = true
	if src, chained := pick(t, sel, tile, 0, topo, &Decisions{}); chained || src != 1 {
		t.Fatalf("got (%d,%v), want (1,false): the single peer shares the switch", src, chained)
	}
}

func TestTopoRankFlatFabricTieBreaksLowestID(t *testing.T) {
	// On the DGX-2 flat fabric every peer link is 2xNVLink-class, so the
	// ranking is one big tie and TopoRank must degrade to first-wins
	// (lowest id) — the determinism the parity harness depends on.
	topo := topology.DGX2()
	tile := newFakeTile()
	tile.valid = devs(3, 5, 9)
	tile.host = true
	if src, chained := pick(t, TopoRank{}, tile, 0, topo, &Decisions{}); chained || src != 3 {
		t.Fatalf("flat-fabric tie: got (%d,%v), want (3,false)", src, chained)
	}
}

func TestHostOnlyRejectsAllPeers(t *testing.T) {
	topo := topology.DGX1()
	tile := newFakeTile()
	tile.valid = devs(1, 3)
	tile.host = true
	if src, chained := pick(t, HostOnly{}, tile, 0, topo, &Decisions{}); chained || src != topology.Host {
		t.Fatalf("got (%d,%v), want host read", src, chained)
	}
}

func TestOptimisticChainHitCountsTaken(t *testing.T) {
	topo := topology.DGX1()
	sel := Optimistic{Base: TopoRank{}}
	c := &Decisions{}
	tile := newFakeTile()
	tile.host = true
	tile.inflight = devs(1, 3) // 3 is 2xNVLink to 0
	src, chained := pick(t, sel, tile, 0, topo, c)
	if !chained || src != 3 {
		t.Fatalf("got (%d,%v), want (3,true): ranked chain onto the best in-flight peer", src, chained)
	}
	if c.ChainsTaken != 1 || c.ChainsMissed != 0 {
		t.Fatalf("counters = taken %d missed %d, want 1/0", c.ChainsTaken, c.ChainsMissed)
	}
}

func TestOptimisticChainMissCountsMissed(t *testing.T) {
	topo := topology.DGX1()
	sel := Optimistic{Base: TopoRank{}}
	c := &Decisions{}

	// No transfer in flight anywhere: the heuristic looks and misses.
	tile := newFakeTile()
	tile.host = true
	if src, chained := pick(t, sel, tile, 0, topo, c); chained || src != topology.Host {
		t.Fatalf("got (%d,%v), want host fallback", src, chained)
	}
	// The only in-flight destination is the requester itself: still a miss.
	tile.inflight = devs(2)
	if src, chained := pick(t, sel, tile, 2, topo, c); chained || src != topology.Host {
		t.Fatalf("got (%d,%v), want host fallback (cannot chain onto self)", src, chained)
	}
	if c.ChainsTaken != 0 || c.ChainsMissed != 2 {
		t.Fatalf("counters = taken %d missed %d, want 0/2", c.ChainsTaken, c.ChainsMissed)
	}
}

func TestSelectSourceDirtyAndForcedChainFallbacks(t *testing.T) {
	topo := topology.DGX1()

	// Host invalid, single dirty holder: the dirty replica is the source
	// for every selector, even host-only.
	tile := newFakeTile()
	tile.dirty = 5
	if src, chained := pick(t, HostOnly{}, tile, 0, topo, &Decisions{}); chained || src != 5 {
		t.Fatalf("got (%d,%v), want dirty holder 5", src, chained)
	}

	// Only copy is in flight: wait on its first destination (forced chain).
	tile = newFakeTile()
	tile.inflight = devs(4)
	if src, chained := pick(t, LowestID{}, tile, 0, topo, &Decisions{}); !chained || src != 4 {
		t.Fatalf("got (%d,%v), want forced chain on 4", src, chained)
	}

	// No copy anywhere is an invariant violation, reported as ok=false.
	if _, _, ok := SelectSource(LowestID{}, topo, newFakeTile(), 0, &Decisions{}); ok {
		t.Fatal("SelectSource invented a source for a copy-less tile")
	}
}

func TestCountTransferClassifiesLinks(t *testing.T) {
	topo := topology.DGX1()
	c := &Decisions{}
	c.CountTransfer(topo, topology.Host, 0)
	c.CountTransfer(topo, 3, 0) // 2xNVLink on the hybrid cube-mesh
	c.CountTransfer(topo, 1, 0) // 1xNVLink
	c.CountTransfer(topo, 5, 3) // no NVLink: PCIe P2P
	if c.SrcHost != 1 || c.SrcNVLink2 != 1 || c.SrcNVLink1 != 1 || c.SrcPCIeP2P != 1 {
		t.Fatalf("counters = %+v, want one of each class", *c)
	}
	if c.Transfers() != 4 {
		t.Fatalf("Transfers() = %d, want 4", c.Transfers())
	}
}

func TestBundleValidate(t *testing.T) {
	full := Bundle{Source: TopoRank{}, Scheduler: WorkStealing{}, Evictor: LRUReadOnlyFirst{}}
	if err := full.Validate(); err != nil {
		t.Fatalf("complete bundle rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		b    Bundle
	}{
		{"no-source", Bundle{Scheduler: WorkStealing{}, Evictor: LRUReadOnlyFirst{}}},
		{"no-scheduler", Bundle{Source: TopoRank{}, Evictor: LRUReadOnlyFirst{}}},
		{"no-evictor", Bundle{Source: TopoRank{}, Scheduler: WorkStealing{}}},
	} {
		if err := tc.b.Validate(); err == nil {
			t.Fatalf("%s: incomplete bundle accepted", tc.name)
		}
	}
	want := "optimistic(topo-rank)/work-stealing/lru-read-only-first"
	got := Bundle{
		Source:    Optimistic{Base: TopoRank{}},
		Scheduler: WorkStealing{},
		Evictor:   LRUReadOnlyFirst{},
	}.Name()
	if got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
}

// TestNamedBundles pins what each shared bundle decides, axis by axis.
func TestNamedBundles(t *testing.T) {
	for _, tc := range []struct {
		b    Bundle
		want string
	}{
		{XKBlas, "optimistic(topo-rank)/work-stealing/lru-read-only-first"},
		{NoHeuristic, "topo-rank/work-stealing/lru-read-only-first"},
		{NoHeuristicNoTopo, "lowest-id/work-stealing/lru-read-only-first"},
		{XKBlasDMDAS, "optimistic(topo-rank)/dmdas/lru-read-only-first"},
	} {
		if err := tc.b.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.want, err)
		}
		if got := tc.b.Name(); got != tc.want {
			t.Fatalf("Name() = %q, want %q", got, tc.want)
		}
	}
}
