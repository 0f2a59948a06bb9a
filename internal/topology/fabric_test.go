package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// wantLegacyHops reproduces the pre-fabric hand-coded route tables: host
// transfers charge the GPU's DMA engine plus its switch link, NVLink pairs
// charge the direct link, and PCIe peers go up through the source switch,
// across QPI when changing sockets, and down through the destination
// switch. The fabric router must reproduce these exactly — the golden
// sweeps' event order depends on them.
func wantLegacyHops(p *Platform, hasNV func(i, j int) bool, src, dst DeviceID) []string {
	switch {
	case src == Host:
		return []string{fmt.Sprintf("gpu%d.h2d", dst), fmt.Sprintf("pcie%d.down", p.PCIeSwitchOf(dst))}
	case dst == Host:
		return []string{fmt.Sprintf("gpu%d.d2h", src), fmt.Sprintf("pcie%d.up", p.PCIeSwitchOf(src))}
	case hasNV(int(src), int(dst)):
		return []string{fmt.Sprintf("nvlink.%d->%d", src, dst)}
	default:
		hops := []string{fmt.Sprintf("pcie%d.up", p.PCIeSwitchOf(src))}
		ss := p.SocketOfSwitch(p.PCIeSwitchOf(src))
		ds := p.SocketOfSwitch(p.PCIeSwitchOf(dst))
		if ss != ds {
			hops = append(hops, fmt.Sprintf("qpi.%d->", ss))
		}
		return append(hops, fmt.Sprintf("pcie%d.down", p.PCIeSwitchOf(dst)))
	}
}

func hopNames(p *Platform, src, dst DeviceID) []string {
	r := p.Route(src, dst)
	names := make([]string, len(r.Hops))
	for i, e := range r.Hops {
		names[i] = e.Name
	}
	return names
}

func checkLegacyRouteParity(t *testing.T, p *Platform, hasNV func(i, j int) bool) {
	t.Helper()
	devs := append(p.GPUs(), Host)
	for _, src := range devs {
		for _, dst := range devs {
			if src == dst {
				continue
			}
			want := wantLegacyHops(p, hasNV, src, dst)
			got := hopNames(p, src, dst)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: route %v->%v = %v, want %v", p.Name, src, dst, got, want)
			}
		}
	}
}

// TestLegacyRouteParity locks the fabric router to the legacy hand-coded
// hop sequences (names AND order — submission order feeds the simulator's
// event tie-breaker) for every device pair of every legacy platform size.
func TestLegacyRouteParity(t *testing.T) {
	dgx1NV := func(i, j int) bool {
		for _, prs := range [][][2]int{nvlink2Pairs, nvlink1Pairs} {
			for _, pr := range prs {
				if (pr[0] == i && pr[1] == j) || (pr[0] == j && pr[1] == i) {
					return true
				}
			}
		}
		return false
	}
	for n := 1; n <= 8; n++ {
		checkLegacyRouteParity(t, DGX1WithGPUs(n), dgx1NV)
	}
	allNV := func(i, j int) bool { return true }
	for n := 1; n <= 16; n++ {
		checkLegacyRouteParity(t, DGX2WithGPUs(n), allNV)
	}
	checkLegacyRouteParity(t, SummitNode(), func(i, j int) bool { return i/3 == j/3 })
}

// TestLegacyLinkClassParity locks the routed link classification to the
// legacy pairwise tables (the policy counters and TopoRank read it).
func TestLegacyLinkClassParity(t *testing.T) {
	p := DGX1()
	for _, c := range []struct {
		a, b DeviceID
		kind LinkKind
		bw   float64
	}{
		{0, 3, LinkNVLink2, 96.4},
		{0, 1, LinkNVLink1, 48.4},
		{0, 5, LinkPCIe, 15.8},  // cross-socket: slowest hop is the switch uplink
		{0, 6, LinkPCIe, 15.8},  // cross-socket other switch
		{2, 4, LinkPCIe, 15.8},  // cross-socket, no NVLink
		{Host, 0, LinkPCIe, 12}, // DMA engine is the slowest hop
		{3, Host, LinkPCIe, 12},
	} {
		got := p.Link(c.a, c.b)
		if got.Kind != c.kind || got.BandwidthGBs != c.bw {
			t.Errorf("Link(%v,%v) = %v/%g, want %v/%g", c.a, c.b, got.Kind, got.BandwidthGBs, c.kind, c.bw)
		}
	}
	s := SummitNode()
	if l := s.Link(0, 3); l.Kind != LinkPCIe || l.BandwidthGBs != summitXBusGBs {
		t.Errorf("Summit cross-triplet = %v/%g, want PCIe/%g", l.Kind, l.BandwidthGBs, float64(summitXBusGBs))
	}
	if l := s.Link(Host, 5); l.Kind != LinkNVLinkHost || l.BandwidthGBs != summitHostNVGBs {
		t.Errorf("Summit host = %v/%g, want NVH/%g", l.Kind, l.BandwidthGBs, float64(summitHostNVGBs))
	}
}

func TestDGXA100PlaneRoutes(t *testing.T) {
	p := DGXA100()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Peer routes cross two contended plane ports: src out-port, dst
	// in-port — transfers into one GPU contend on its in-port regardless
	// of source.
	for _, pair := range [][2]DeviceID{{0, 1}, {0, 7}, {3, 5}} {
		got := hopNames(p, pair[0], pair[1])
		want := []string{
			fmt.Sprintf("nvsw.%d.out", pair[0]),
			fmt.Sprintf("nvsw.%d.in", pair[1]),
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("route %v->%v = %v, want %v", pair[0], pair[1], got, want)
		}
	}
	if l := p.Link(0, 7); l.Kind != LinkNVLink2 || l.BandwidthGBs != dgxa100PortGBs {
		t.Errorf("peer link = %v/%g, want NV2/%g", l.Kind, l.BandwidthGBs, float64(dgxa100PortGBs))
	}
	if l := p.Link(Host, 2); l.Kind != LinkNVLinkHost {
		t.Errorf("host link = %v, want NVH", l.Kind)
	}
	if p.HopDistance(0, 1) != 2 {
		t.Errorf("plane hop distance = %d, want 2", p.HopDistance(0, 1))
	}
}

func TestMultiNodeRoutes(t *testing.T) {
	p := MultiNodeDGX1(2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumGPUs != 16 || p.NumNodes() != 2 {
		t.Fatalf("shape = %d GPUs / %d nodes, want 16/2", p.NumGPUs, p.NumNodes())
	}
	if p.NodeOf(3) != 0 || p.NodeOf(11) != 1 {
		t.Fatalf("NodeOf = %d/%d, want 0/1", p.NodeOf(3), p.NodeOf(11))
	}
	// Node-local routes are untouched DGX-1 routes.
	if got := hopNames(p, 0, 3); !reflect.DeepEqual(got, []string{"nvlink.0->3"}) {
		t.Errorf("intra-node NVLink route = %v", got)
	}
	if got := hopNames(p, 8, 11); !reflect.DeepEqual(got, []string{"nvlink.8->11"}) {
		t.Errorf("node-1 NVLink route = %v", got)
	}
	// Cross-node peers ride switch uplinks and the NIC edge (node 1's
	// switches are globally numbered 4..7, so GPU 9 hangs off switch 4).
	if got := hopNames(p, 0, 9); !reflect.DeepEqual(got,
		[]string{"pcie0.up", "net.0->1", "pcie4.down"}) {
		t.Errorf("cross-node route = %v", got)
	}
	if l := p.Link(0, 9); l.Kind != LinkNet || l.BandwidthGBs != interNodeGBs {
		t.Errorf("cross-node link = %v/%g, want Net/%g", l.Kind, l.BandwidthGBs, float64(interNodeGBs))
	}
	// Host memory lives on node 0: node-1 GPUs stage host transfers over
	// the network, node-0 GPUs keep the legacy two-hop route.
	if got := hopNames(p, Host, 2); !reflect.DeepEqual(got, []string{"gpu2.h2d", "pcie1.down"}) {
		t.Errorf("node-0 host route = %v", got)
	}
	if got := hopNames(p, Host, 12); !reflect.DeepEqual(got,
		[]string{"gpu12.h2d", "net.0->1", "pcie6.down"}) {
		t.Errorf("node-1 host route = %v", got)
	}
	if got := hopNames(p, 12, Host); !reflect.DeepEqual(got,
		[]string{"gpu12.d2h", "pcie6.up", "net.1->0"}) {
		t.Errorf("node-1 writeback route = %v", got)
	}
	if l := p.Link(Host, 12); l.Kind != LinkNet {
		t.Errorf("node-1 host link kind = %v, want Net", l.Kind)
	}
}

func TestHeteroFleetSpecs(t *testing.T) {
	p := HeteroFleet()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for g := DeviceID(0); g < 4; g++ {
		if p.GPUSpecOf(g) != V100SXM2 {
			t.Errorf("GPU %d spec = %+v, want V100", g, p.GPUSpecOf(g))
		}
	}
	for g := DeviceID(4); g < 8; g++ {
		spec := p.GPUSpecOf(g)
		if spec != P100SXM2 {
			t.Errorf("GPU %d spec = %+v, want P100", g, spec)
		}
		if spec.KernelEff >= 1 || spec.KernelEff <= 0 {
			t.Errorf("GPU %d KernelEff = %g, want in (0,1)", g, spec.KernelEff)
		}
	}
	// Wiring is still the DGX-1 cube-mesh.
	if got := hopNames(p, 0, 4); len(got) != 1 || got[0] != "nvlink.0->4" {
		t.Errorf("hetero route 0->4 = %v", got)
	}
}

// TestRegistryMatrixSymmetry checks, for every registered platform, that
// the routed bandwidth matrix is symmetric, strictly positive off the
// diagonal, and consistent with per-route classification.
func TestRegistryMatrixSymmetry(t *testing.T) {
	for _, name := range Names() {
		p, ok := Lookup(name)
		if !ok {
			t.Fatalf("registered platform %q failed lookup", name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		m := p.BandwidthMatrix()
		if len(m) != p.NumGPUs+1 {
			t.Errorf("%s: matrix dim %d, want %d", name, len(m), p.NumGPUs+1)
			continue
		}
		for i := range m {
			for j := range m[i] {
				if m[i][j] != m[j][i] {
					t.Errorf("%s: m[%d][%d]=%g != m[%d][%d]=%g", name, i, j, m[i][j], j, i, m[j][i])
				}
				if i != j && i < p.NumGPUs && j < p.NumGPUs && m[i][j] <= 0 {
					t.Errorf("%s: missing bandwidth %d->%d", name, i, j)
				}
			}
		}
		for _, src := range p.GPUs() {
			for _, dst := range p.GPUs() {
				if src == dst {
					continue
				}
				r := p.Route(src, dst)
				if m[src][dst] != r.BandwidthGBs {
					t.Errorf("%s: matrix[%d][%d]=%g != route bw %g", name, src, dst, m[src][dst], r.BandwidthGBs)
				}
			}
		}
	}
}

// randomNode generates a structurally valid random NodeSpec.
func randomNode(rng *rand.Rand) NodeSpec {
	n := 1 + rng.Intn(6)
	nd := NodeSpec{
		GPUs:       n,
		GPU:        V100SXM2,
		HostLink:   Link{Kind: LinkPCIe, BandwidthGBs: 5 + rng.Float64()*20},
		SwitchLink: Link{Kind: LinkPCIe, BandwidthGBs: 5 + rng.Float64()*20},
		SocketLink: Link{Kind: LinkPCIe, BandwidthGBs: 5 + rng.Float64()*30},
	}
	numSwitch := 1 + rng.Intn(n)
	nd.SwitchOfGPU = make([]int, n)
	for i := range nd.SwitchOfGPU {
		nd.SwitchOfGPU[i] = i % numSwitch
	}
	numSock := 1 + rng.Intn(numSwitch)
	nd.SocketOfSwitch = make([]int, numSwitch)
	for s := range nd.SocketOfSwitch {
		nd.SocketOfSwitch[s] = s % numSock
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch rng.Intn(3) {
			case 0:
				nd.Peers = append(nd.Peers, PeerLink{A: i, B: j,
					Link: Link{Kind: LinkNVLink2, BandwidthGBs: 50 + rng.Float64()*100}})
			case 1:
				nd.Peers = append(nd.Peers, PeerLink{A: i, B: j,
					Link: Link{Kind: LinkNVLink1, BandwidthGBs: 20 + rng.Float64()*40}})
			}
		}
	}
	if rng.Intn(4) == 0 {
		nd.Peers = nil
		port := Link{Kind: LinkNVLink2, BandwidthGBs: 100 + rng.Float64()*200}
		nd.NVSwitchPort = &port
	}
	return nd
}

// TestFabricFuzz builds randomized topologies (fixed seed) and checks that
// Build either rejects them or yields a platform whose Validate passes and
// whose routes satisfy the structural route invariants: endpoints only at
// the ends, no GPU/host transit, charged hops non-empty with positive
// bottleneck bandwidth, and bit-identical routes across rebuilds.
func TestFabricFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nNodes := 1 + rng.Intn(3)
		seed := rng.Int63()
		build := func() (*Platform, error) {
			r2 := rand.New(rand.NewSource(seed))
			nodes := make([]NodeSpec, nNodes)
			for i := range nodes {
				nodes[i] = randomNode(r2)
			}
			inter := Link{}
			if nNodes > 1 {
				inter = Link{Kind: LinkNet, BandwidthGBs: 5 + r2.Float64()*20}
			}
			return Build(fmt.Sprintf("fuzz-%d", trial), nodes, inter)
		}
		p, err := build()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		devs := append(p.GPUs(), Host)
		for _, src := range devs {
			for _, dst := range devs {
				if src == dst {
					continue
				}
				r := p.Route(src, dst)
				if len(r.Hops) == 0 || r.BandwidthGBs <= 0 || r.Kind == LinkNone {
					t.Fatalf("trial %d: degenerate route %v->%v", trial, src, dst)
				}
				for k, e := range r.Full {
					interior := k > 0
					if interior {
						kind := p.comps[e.From].Kind
						if kind == CompGPU || kind == CompHost {
							t.Fatalf("trial %d: route %v->%v transits %v", trial, src, dst, kind)
						}
					}
				}
			}
		}
		// Routing is a pure function of the spec: a rebuild must produce
		// identical hop sequences.
		p2, err := build()
		if err != nil {
			t.Fatalf("trial %d rebuild: %v", trial, err)
		}
		for _, src := range devs {
			for _, dst := range devs {
				if src == dst {
					continue
				}
				if a, b := hopNames(p, src, dst), hopNames(p2, src, dst); !reflect.DeepEqual(a, b) {
					t.Fatalf("trial %d: nondeterministic route %v->%v: %v vs %v", trial, src, dst, a, b)
				}
			}
		}
	}
}

func TestRegistryUnknownAndNames(t *testing.T) {
	if _, ok := Lookup("no-such-platform"); ok {
		t.Fatal("lookup of unknown platform succeeded")
	}
	names := Names()
	want := map[string]bool{"dgx1": true, "dgx2": true, "summit": true,
		"dgxa100": true, "multinode-2xdgx1": true, "hetero-v100-p100": true}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for n := range want {
		if !seen[n] {
			t.Errorf("registry missing %q (have %v)", n, names)
		}
	}
}
