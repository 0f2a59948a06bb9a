package topology

import "fmt"

// The fabric graph. A platform is declared as a set of components (GPUs,
// PCIe switches, host sockets, NVSwitch planes, NICs) joined by directed
// edges, each edge being one contended link resource. Routing derives the
// multi-hop path between any two devices; the slowest charged hop defines
// the route's class and bandwidth, and device.Platform charges every
// charged hop, so transfers sharing a QPI bridge or an inter-node NIC
// genuinely contend per hop.

// CompKind classifies a fabric component (graph vertex).
type CompKind int

const (
	// CompHost is the host memory endpoint (one per platform; it lives on
	// node 0 of a multi-node fabric).
	CompHost CompKind = iota
	// CompGPU is one accelerator endpoint.
	CompGPU
	// CompSwitch is a PCIe switch (or the host-bridge group GPUs share on
	// NVLink-host platforms).
	CompSwitch
	// CompSocket is a CPU socket / host bridge.
	CompSocket
	// CompNVSwitch is an all-to-all NVSwitch plane.
	CompNVSwitch
	// CompNIC is a network interface joining nodes of a multi-node fabric.
	CompNIC
)

func (k CompKind) String() string {
	switch k {
	case CompHost:
		return "host"
	case CompGPU:
		return "gpu"
	case CompSwitch:
		return "switch"
	case CompSocket:
		return "socket"
	case CompNVSwitch:
		return "nvswitch"
	case CompNIC:
		return "nic"
	default:
		return fmt.Sprintf("CompKind(%d)", int(k))
	}
}

// Component is one fabric vertex.
type Component struct {
	ID   int
	Kind CompKind
	// Node is the machine the component belongs to (0 on single-node
	// platforms).
	Node int
	// Idx is the component's global ordinal within its kind (GPU id,
	// switch id, socket id, ...).
	Idx int
}

// EdgeClass labels the contended medium of an edge for resource-class
// accounting (device.ResourceClass and the class.* metric rollups).
type EdgeClass int

const (
	// EdgeVirtual edges are structural (host↔socket, socket↔NIC
	// attachment); they count as graph hops for routing but are never
	// charged as resources.
	EdgeVirtual EdgeClass = iota
	// EdgeH2D and EdgeD2H are per-GPU DMA copy engines.
	EdgeH2D
	EdgeD2H
	// EdgeNVLink is a point-to-point NVLink or an NVSwitch port.
	EdgeNVLink
	// EdgePCIe is a PCIe switch uplink (or the shared host-bridge lane
	// group on NVLink-host platforms).
	EdgePCIe
	// EdgeQPI is an inter-socket bus (QPI, X-Bus).
	EdgeQPI
	// EdgeNet is an inter-node network link.
	EdgeNet
)

// Edge is one directed contended link resource of the fabric.
type Edge struct {
	ID int
	// Name is the unique simulation resource name ("pcie0.up",
	// "nvlink.0->1", "net.0->1", ...).
	Name  string
	Kind  LinkKind
	Class EdgeClass
	// BandwidthGBs is the sustained per-direction bandwidth in GB/s.
	BandwidthGBs float64
	// From and To are component ids.
	From, To int
	// HostDMA marks a per-GPU copy engine: it is charged only on routes
	// with a host endpoint. Peer-to-peer DMA reads the remote device
	// directly, so the staging engines stay idle on p2p routes (unless a
	// route has no other physical hop, in which case every physical hop
	// is charged).
	HostDMA bool
}

// Path is one routed multi-hop path between two devices.
type Path struct {
	// Hops are the charged edges in the order device.Platform submits
	// them: DMA engines first, then the remaining hops from src to dst.
	Hops []*Edge
	// Full is every edge traversed src→dst including virtual ones, for
	// rendering.
	Full []*Edge
	// Kind and BandwidthGBs are the class and rate of the slowest charged
	// hop — the hop that defines what the route "is".
	Kind         LinkKind
	BandwidthGBs float64
}

// PeerLink declares a direct GPU↔GPU link (both directions) between two
// node-local GPU indices.
type PeerLink struct {
	A, B int
	Link Link
}

// NodeSpec declares the internal fabric of one machine node: which switch
// each GPU hangs off, which socket each switch belongs to, the link classes
// of the host path, and the direct GPU-GPU links (either a pairwise Peers
// list or an all-to-all NVSwitch plane).
type NodeSpec struct {
	GPUs int
	// GPU is the node's reference GPU spec; PerGPU (optional, len==GPUs)
	// overrides it per device for heterogeneous fleets.
	GPU    GPUSpec
	PerGPU []GPUSpec

	// SwitchOfGPU[i] is the node-local switch of GPU i; SocketOfSwitch[s]
	// the node-local socket of switch s.
	SwitchOfGPU    []int
	SocketOfSwitch []int

	// HostLink is each GPU's dedicated DMA engine (per direction);
	// SwitchLink the shared per-switch uplink (per direction); SocketLink
	// the inter-socket bus (per direction).
	HostLink   Link
	SwitchLink Link
	SocketLink Link

	// Peers lists direct GPU-GPU links; NVSwitchPort, when set, instead
	// gives every GPU an in- and an out-port of that rate into a shared
	// NVSwitch plane (so every p2p route crosses two contended ports).
	Peers        []PeerLink
	NVSwitchPort *Link
}

// Build assembles a platform from per-node fabric specs. With more than one
// node, every node gets a NIC and each ordered node pair an inter-node
// network edge of the given link; host memory lives on node 0. The result
// is validated; constructors wrap Build and panic on error.
func Build(name string, nodes []NodeSpec, inter Link) (*Platform, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("topology: platform %q has no nodes", name)
	}
	p := &Platform{
		Name:           name,
		GPU:            nodes[0].GPU,
		SwitchGBs:      nodes[0].SwitchLink.BandwidthGBs,
		InterSocketGBs: nodes[0].SocketLink.BandwidthGBs,
	}
	totalSockets := 0
	for _, nd := range nodes {
		totalSockets += socketCount(nd)
	}

	addComp := func(kind CompKind, node, idx int) int {
		id := len(p.comps)
		p.comps = append(p.comps, Component{ID: id, Kind: kind, Node: node, Idx: idx})
		return id
	}
	addEdge := func(name string, kind LinkKind, class EdgeClass, bw float64, from, to int, dma bool) *Edge {
		e := &Edge{ID: len(p.edges), Name: name, Kind: kind, Class: class,
			BandwidthGBs: bw, From: from, To: to, HostDMA: dma}
		p.edges = append(p.edges, e)
		return e
	}
	virt := func(a, b int) {
		addEdge("", LinkNone, EdgeVirtual, 0, a, b, false)
		addEdge("", LinkNone, EdgeVirtual, 0, b, a, false)
	}

	hostComp := addComp(CompHost, 0, 0)
	p.hostComp = hostComp

	gpuBase, swBase, sockBase := 0, 0, 0
	var nics []int
	for ni, nd := range nodes {
		if nd.GPUs <= 0 {
			return nil, fmt.Errorf("topology: platform %q node %d has %d GPUs", name, ni, nd.GPUs)
		}
		if len(nd.SwitchOfGPU) != nd.GPUs {
			return nil, fmt.Errorf("topology: platform %q node %d: SwitchOfGPU has %d entries, want %d",
				name, ni, len(nd.SwitchOfGPU), nd.GPUs)
		}
		if nd.PerGPU != nil && len(nd.PerGPU) != nd.GPUs {
			return nil, fmt.Errorf("topology: platform %q node %d: PerGPU has %d entries, want %d",
				name, ni, len(nd.PerGPU), nd.GPUs)
		}
		nSock := socketCount(nd)
		nSw := len(nd.SocketOfSwitch)

		sockets := make([]int, nSock)
		for s := 0; s < nSock; s++ {
			sockets[s] = addComp(CompSocket, ni, sockBase+s)
		}
		switches := make([]int, nSw)
		for s := 0; s < nSw; s++ {
			so := nd.SocketOfSwitch[s]
			if so < 0 || so >= nSock {
				return nil, fmt.Errorf("topology: platform %q node %d: switch %d on unknown socket %d",
					name, ni, s, so)
			}
			switches[s] = addComp(CompSwitch, ni, swBase+s)
		}
		gpus := make([]int, nd.GPUs)
		for i := 0; i < nd.GPUs; i++ {
			sw := nd.SwitchOfGPU[i]
			if sw < 0 || sw >= nSw {
				return nil, fmt.Errorf("topology: platform %q node %d: GPU %d on unknown switch %d",
					name, ni, i, sw)
			}
			gpus[i] = addComp(CompGPU, ni, gpuBase+i)
			spec := nd.GPU
			if nd.PerGPU != nil {
				spec = nd.PerGPU[i]
			}
			p.gpuSpecs = append(p.gpuSpecs, spec)
			p.pcieSwitch = append(p.pcieSwitch, swBase+sw)
			p.nodeOf = append(p.nodeOf, ni)
			p.gpuComp = append(p.gpuComp, gpus[i])
		}
		for s := 0; s < nSw; s++ {
			p.socketOf = append(p.socketOf, sockBase+nd.SocketOfSwitch[s])
		}
		if ni == 0 {
			// Host memory attaches to the head node's sockets.
			for _, sc := range sockets {
				virt(hostComp, sc)
			}
		}

		// Edge declaration order fixes the device layer's resource
		// construction order and breaks routing ties (the forward walk
		// picks the smallest edge id): NVSwitch plane ports first (so a
		// same-switch GPU pair ties onto the plane, not the through-switch
		// path), then per-GPU DMA engines, direct GPU-GPU links in (i,j)
		// order, switch up/down pairs, inter-socket pairs. On single-node
		// platforms without a plane this reproduces the legacy resource
		// order exactly.
		if nd.NVSwitchPort != nil {
			plane := addComp(CompNVSwitch, ni, ni)
			for i := 0; i < nd.GPUs; i++ {
				g := gpuBase + i
				addEdge(fmt.Sprintf("nvsw.%d.out", g), nd.NVSwitchPort.Kind, EdgeNVLink,
					nd.NVSwitchPort.BandwidthGBs, gpus[i], plane, false)
				addEdge(fmt.Sprintf("nvsw.%d.in", g), nd.NVSwitchPort.Kind, EdgeNVLink,
					nd.NVSwitchPort.BandwidthGBs, plane, gpus[i], false)
			}
		}
		for i := 0; i < nd.GPUs; i++ {
			g := gpuBase + i
			sw := switches[nd.SwitchOfGPU[i]]
			e := addEdge(fmt.Sprintf("gpu%d.h2d", g), nd.HostLink.Kind, EdgeH2D,
				nd.HostLink.BandwidthGBs, sw, gpus[i], true)
			p.gpuH2D = append(p.gpuH2D, e.ID)
			e = addEdge(fmt.Sprintf("gpu%d.d2h", g), nd.HostLink.Kind, EdgeD2H,
				nd.HostLink.BandwidthGBs, gpus[i], sw, true)
			p.gpuD2H = append(p.gpuD2H, e.ID)
		}
		peer := make([][]*Link, nd.GPUs)
		for i := range peer {
			peer[i] = make([]*Link, nd.GPUs)
		}
		for _, pl := range nd.Peers {
			if pl.A < 0 || pl.A >= nd.GPUs || pl.B < 0 || pl.B >= nd.GPUs || pl.A == pl.B {
				return nil, fmt.Errorf("topology: platform %q node %d: bad peer link %d<->%d",
					name, ni, pl.A, pl.B)
			}
			l := pl.Link
			peer[pl.A][pl.B] = &l
			peer[pl.B][pl.A] = &l
		}
		for i := 0; i < nd.GPUs; i++ {
			for j := 0; j < nd.GPUs; j++ {
				l := peer[i][j]
				if l == nil {
					continue
				}
				addEdge(fmt.Sprintf("nvlink.%d->%d", gpuBase+i, gpuBase+j),
					l.Kind, EdgeNVLink, l.BandwidthGBs, gpus[i], gpus[j], false)
			}
		}
		for s := 0; s < nSw; s++ {
			sock := sockets[nd.SocketOfSwitch[s]]
			addEdge(fmt.Sprintf("pcie%d.up", swBase+s), nd.SwitchLink.Kind, EdgePCIe,
				nd.SwitchLink.BandwidthGBs, switches[s], sock, false)
			addEdge(fmt.Sprintf("pcie%d.down", swBase+s), nd.SwitchLink.Kind, EdgePCIe,
				nd.SwitchLink.BandwidthGBs, sock, switches[s], false)
		}
		for a := 0; a < nSock; a++ {
			for b := 0; b < nSock; b++ {
				if a == b {
					continue
				}
				nm := fmt.Sprintf("qpi.%d->%d", sockBase+a, sockBase+b)
				if totalSockets == 2 {
					nm = fmt.Sprintf("qpi.%d->", sockBase+a)
				}
				addEdge(nm, nd.SocketLink.Kind, EdgeQPI, nd.SocketLink.BandwidthGBs,
					sockets[a], sockets[b], false)
			}
		}
		if len(nodes) > 1 {
			nic := addComp(CompNIC, ni, ni)
			nics = append(nics, nic)
			for _, sc := range sockets {
				virt(sc, nic)
			}
		}
		gpuBase += nd.GPUs
		swBase += nSw
		sockBase += nSock
	}
	p.NumGPUs = gpuBase
	p.numSwitch = swBase
	p.numSockets = sockBase
	p.numNodes = len(nodes)
	for a := range nics {
		for b := range nics {
			if a == b {
				continue
			}
			addEdge(fmt.Sprintf("net.%d->%d", a, b), inter.Kind, EdgeNet,
				inter.BandwidthGBs, nics[a], nics[b], false)
		}
	}
	if err := p.computeRoutes(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build for package-level constructors; it panics on error.
func MustBuild(name string, nodes []NodeSpec, inter Link) *Platform {
	p, err := Build(name, nodes, inter)
	if err != nil {
		panic(err)
	}
	return p
}

func socketCount(nd NodeSpec) int {
	max := -1
	for _, s := range nd.SocketOfSwitch {
		if s > max {
			max = s
		}
	}
	return max + 1
}

// canTransit reports whether a component may appear in the interior of a
// routed path. GPUs and the host are endpoints only: peer DMA never
// forwards through another device's memory.
func (p *Platform) canTransit(c int) bool {
	switch p.comps[c].Kind {
	case CompSwitch, CompSocket, CompNVSwitch, CompNIC:
		return true
	default:
		return false
	}
}

func (p *Platform) devComp(d DeviceID) int {
	if d == Host {
		return p.hostComp
	}
	return p.gpuComp[d]
}

// computeRoutes precomputes the routed path for every ordered device pair.
// For each destination a reverse breadth-first search labels every
// component with its constrained hop distance; the forward walk then
// follows distance-decreasing edges, taking the smallest edge id at every
// step, so among equal-length paths the lexicographically smallest edge-id
// sequence wins — routing is a pure function of the declared graph.
func (p *Platform) computeRoutes() error {
	n := p.NumGPUs
	out := make([][]*Edge, len(p.comps))
	in := make([][]*Edge, len(p.comps))
	for _, e := range p.edges {
		out[e.From] = append(out[e.From], e)
		in[e.To] = append(in[e.To], e)
	}
	p.routes = make([][]*Path, n+1)
	for si := range p.routes {
		p.routes[si] = make([]*Path, n+1)
	}
	dist := make([]int, len(p.comps))
	queue := make([]int, 0, len(p.comps))
	for di := 0; di <= n; di++ {
		dst := DeviceID(di - 1)
		dc := p.devComp(dst)
		for i := range dist {
			dist[i] = -1
		}
		dist[dc] = 0
		queue = append(queue[:0], dc)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if v != dc && !p.canTransit(v) {
				continue
			}
			for _, e := range in[v] {
				if dist[e.From] < 0 {
					dist[e.From] = dist[v] + 1
					queue = append(queue, e.From)
				}
			}
		}
		for si := 0; si <= n; si++ {
			src := DeviceID(si - 1)
			if src == dst {
				continue
			}
			sc := p.devComp(src)
			if dist[sc] < 0 {
				return fmt.Errorf("topology: platform %q has no route %v -> %v", p.Name, src, dst)
			}
			full := make([]*Edge, 0, dist[sc])
			cur := sc
			for cur != dc {
				var pick *Edge
				for _, e := range out[cur] {
					if dist[e.To] != dist[cur]-1 {
						continue
					}
					if e.To != dc && !p.canTransit(e.To) {
						continue
					}
					pick = e
					break
				}
				if pick == nil {
					return fmt.Errorf("topology: platform %q: route walk stuck at %v -> %v",
						p.Name, src, dst)
				}
				full = append(full, pick)
				cur = pick.To
			}
			p.routes[si][di] = newPath(full, src == Host || dst == Host)
		}
	}
	return nil
}

// newPath derives a Path's charged hops from the traversed edges. DMA
// engines are charged only on host-endpoint routes and are submitted
// first; the remaining physical hops follow in path order. A peer route
// whose only physical hops are DMA engines (two GPUs under one switch with
// no direct link) charges every physical hop instead.
func newPath(full []*Edge, hostEndpoint bool) *Path {
	var dma, rest []*Edge
	for _, e := range full {
		if e.Class == EdgeVirtual {
			continue
		}
		if e.HostDMA {
			if hostEndpoint {
				dma = append(dma, e)
			}
			continue
		}
		rest = append(rest, e)
	}
	hops := append(dma, rest...)
	if len(hops) == 0 {
		for _, e := range full {
			if e.Class != EdgeVirtual {
				hops = append(hops, e)
			}
		}
	}
	pa := &Path{Hops: hops, Full: full}
	for _, e := range hops {
		if pa.BandwidthGBs == 0 || e.BandwidthGBs < pa.BandwidthGBs {
			pa.BandwidthGBs = e.BandwidthGBs
			pa.Kind = e.Kind
		}
	}
	return pa
}

// Route returns the routed path src→dst, or nil when src == dst (local
// copies never touch the fabric).
func (p *Platform) Route(src, dst DeviceID) *Path {
	if src == dst {
		return nil
	}
	return p.routes[int(src)+1][int(dst)+1]
}

// HopDistance reports the number of charged hops on the route src→dst
// (0 for a device to itself), the fabric distance `topo -hops` prints.
func (p *Platform) HopDistance(src, dst DeviceID) int {
	r := p.Route(src, dst)
	if r == nil {
		return 0
	}
	return len(r.Hops)
}

// Edges returns every fabric edge in declaration order. Virtual edges have
// an empty name and EdgeVirtual class.
func (p *Platform) Edges() []*Edge { return p.edges }

// Components returns every fabric component.
func (p *Platform) Components() []Component { return p.comps }

// HostDMAEdges returns the per-GPU DMA copy-engine edges (host→device,
// device→host).
func (p *Platform) HostDMAEdges(g DeviceID) (h2d, d2h *Edge) {
	return p.edges[p.gpuH2D[g]], p.edges[p.gpuD2H[g]]
}

// GPUSpecOf reports the spec of one GPU; on uniform platforms every GPU
// shares the reference spec.
func (p *Platform) GPUSpecOf(g DeviceID) GPUSpec { return p.gpuSpecs[g] }

// NumNodes reports how many machine nodes the fabric spans.
func (p *Platform) NumNodes() int { return p.numNodes }

// NodeOf reports the machine node a GPU belongs to.
func (p *Platform) NodeOf(g DeviceID) int { return p.nodeOf[g] }
