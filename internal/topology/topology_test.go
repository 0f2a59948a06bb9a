package topology

import (
	"testing"
	"testing/quick"
)

func TestDGX1Shape(t *testing.T) {
	p := DGX1()
	if p.NumGPUs != 8 {
		t.Fatalf("NumGPUs = %d, want 8", p.NumGPUs)
	}
	if p.NumPCIeSwitches() != 4 || p.NumSockets() != 2 {
		t.Fatalf("switches/sockets = %d/%d, want 4/2", p.NumPCIeSwitches(), p.NumSockets())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Every GPU on the DGX-1 cube-mesh has exactly 3 double-NVLink peers,
// 1 single-NVLink peer and 3 PCIe peers... actually each V100 has 6 bricks:
// the wiring gives each GPU three 2×NVLink peers OR two 2× and two 1×; the
// invariant that must hold is 6 bricks per GPU.
func TestDGX1SixNVLinkBricksPerGPU(t *testing.T) {
	p := DGX1()
	for _, g := range p.GPUs() {
		bricks := 0
		for _, h := range p.GPUs() {
			if g == h {
				continue
			}
			switch p.Link(g, h).Kind {
			case LinkNVLink2:
				bricks += 2
			case LinkNVLink1:
				bricks++
			}
		}
		if bricks != 6 {
			t.Errorf("GPU %d uses %d NVLink bricks, want 6", g, bricks)
		}
	}
}

func TestDGX1MatchesPaperFig2(t *testing.T) {
	p := DGX1()
	// Spot-check classes against the measured matrix of Fig. 2.
	cases := []struct {
		a, b DeviceID
		kind LinkKind
	}{
		{0, 3, LinkNVLink2}, {0, 4, LinkNVLink2}, {1, 2, LinkNVLink2},
		{2, 3, LinkNVLink2}, {6, 7, LinkNVLink2}, {5, 6, LinkNVLink2},
		{0, 1, LinkNVLink1}, {0, 2, LinkNVLink1}, {3, 7, LinkNVLink1},
		{4, 5, LinkNVLink1}, {4, 6, LinkNVLink1},
		{0, 5, LinkPCIe}, {0, 6, LinkPCIe}, {0, 7, LinkPCIe},
		{1, 4, LinkPCIe}, {2, 7, LinkPCIe},
	}
	for _, c := range cases {
		if got := p.Link(c.a, c.b).Kind; got != c.kind {
			t.Errorf("link %d<->%d = %v, want %v", c.a, c.b, got, c.kind)
		}
		if got := p.Link(c.b, c.a).Kind; got != c.kind {
			t.Errorf("link %d<->%d reverse = %v, want %v", c.b, c.a, got, c.kind)
		}
	}
}

func TestDGX1BandwidthClasses(t *testing.T) {
	p := DGX1()
	if bw := p.Link(0, 3).BandwidthGBs; bw < 90 || bw > 100 {
		t.Errorf("2xNVLink bw = %g, want ~96", bw)
	}
	if bw := p.Link(0, 1).BandwidthGBs; bw < 45 || bw > 52 {
		t.Errorf("1xNVLink bw = %g, want ~48", bw)
	}
	if bw := p.Link(0, 5).BandwidthGBs; bw < 15 || bw > 20 {
		t.Errorf("PCIe P2P bw = %g, want ~17", bw)
	}
}

func TestRankOrdering(t *testing.T) {
	p := DGX1()
	r2 := p.P2PPerformanceRank(0, 3) // 2xNVLink
	r1 := p.P2PPerformanceRank(0, 1) // 1xNVLink
	rp := p.P2PPerformanceRank(0, 5) // PCIe
	rh := p.P2PPerformanceRank(Host, 3)
	if !(r2 > r1 && r1 > rp && rp > rh) {
		t.Fatalf("rank ordering violated: NV2=%d NV1=%d PCIe=%d host=%d", r2, r1, rp, rh)
	}
}

func TestSwitchAssignment(t *testing.T) {
	p := DGX1()
	pairs := [][2]DeviceID{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	for _, pr := range pairs {
		if !p.SameSwitch(pr[0], pr[1]) {
			t.Errorf("GPUs %d,%d should share a switch", pr[0], pr[1])
		}
	}
	if p.SameSwitch(1, 2) || p.SameSwitch(3, 4) {
		t.Error("GPUs on distinct switches reported as sharing one")
	}
}

func TestBandwidthMatrixSymmetryClasses(t *testing.T) {
	p := DGX1()
	m := p.BandwidthMatrix()
	if len(m) != 9 {
		t.Fatalf("matrix dim = %d, want 9 (8 GPUs + host)", len(m))
	}
	for i := 0; i < 8; i++ {
		if m[i][i] < 700 {
			t.Errorf("diagonal (local copy) m[%d][%d] = %g, want ~748", i, i, m[i][i])
		}
		for j := 0; j < 8; j++ {
			if i != j && m[i][j] != m[j][i] {
				t.Errorf("m[%d][%d]=%g != m[%d][%d]=%g", i, j, m[i][j], j, i, m[j][i])
			}
		}
		if m[8][i] <= 0 || m[i][8] <= 0 {
			t.Errorf("missing host bandwidth for GPU %d", i)
		}
	}
}

func TestDGX1Subsets(t *testing.T) {
	for n := 1; n <= 8; n++ {
		p := DGX1WithGPUs(n)
		if p.NumGPUs != n {
			t.Fatalf("NumGPUs = %d, want %d", p.NumGPUs, n)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestSummitNode(t *testing.T) {
	p := SummitNode()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Link(Host, 0).Kind != LinkNVLinkHost {
		t.Error("Summit host link should be NVLink")
	}
	if p.Link(Host, 0).BandwidthGBs < 40 {
		t.Error("Summit host link should be fast (~47-50 GB/s)")
	}
	if p.Link(0, 1).Kind != LinkNVLink1 {
		t.Error("intra-triplet link should be NVLink")
	}
	if p.Link(0, 3).Kind != LinkPCIe {
		t.Error("cross-socket link should not be NVLink")
	}
}

// Property: on any valid subset of the DGX-1, rank ordering is consistent
// with bandwidth ordering for every pair of candidate sources.
func TestRankConsistentWithBandwidthProperty(t *testing.T) {
	f := func(nRaw, dstRaw, aRaw, bRaw uint8) bool {
		n := int(nRaw%8) + 1
		p := DGX1WithGPUs(n)
		dst := DeviceID(int(dstRaw) % n)
		a := DeviceID(int(aRaw) % n)
		b := DeviceID(int(bRaw) % n)
		if a == dst || b == dst || a == b {
			return true
		}
		ra, rb := p.P2PPerformanceRank(a, dst), p.P2PPerformanceRank(b, dst)
		ba, bb := p.Link(a, dst).BandwidthGBs, p.Link(b, dst).BandwidthGBs
		if ra > rb && ba < bb {
			return false
		}
		if rb > ra && bb < ba {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkKindStrings(t *testing.T) {
	for _, k := range []LinkKind{LinkNone, LinkNVLink2, LinkNVLink1, LinkNVLinkHost, LinkPCIe} {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", int(k))
		}
	}
}

func TestDGX2FlatFabric(t *testing.T) {
	p := DGX2()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumGPUs != 16 {
		t.Fatalf("NumGPUs = %d", p.NumGPUs)
	}
	// NVSwitch: every peer pair has the same kind, bandwidth and rank.
	ref := p.Link(0, 1)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if i == j {
				continue
			}
			l := p.Link(DeviceID(i), DeviceID(j))
			if l.Kind != ref.Kind || l.BandwidthGBs != ref.BandwidthGBs {
				t.Fatalf("non-uniform fabric at %d->%d", i, j)
			}
		}
	}
	if ref.BandwidthGBs < 100 {
		t.Fatalf("NVSwitch bandwidth = %g, want ~135", ref.BandwidthGBs)
	}
	// Host links stay PCIe.
	if p.Link(Host, 3).Kind != LinkPCIe {
		t.Fatal("DGX-2 host links should be PCIe")
	}
	for n := 1; n <= 16; n++ {
		if err := DGX2WithGPUs(n).Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}
