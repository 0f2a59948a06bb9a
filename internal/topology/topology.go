// Package topology describes multi-GPU platform interconnect topologies as
// routed fabric graphs: components (GPUs, PCIe switches, host sockets,
// NVSwitch planes, NICs) joined by directed edges, each edge one contended
// link resource. Route(src, dst) returns the multi-hop path between two
// devices; the slowest hop defines the route's class and the device layer
// charges every hop, so transfers sharing a QPI bridge or an inter-node NIC
// genuinely contend.
//
// The flagship model is the NVIDIA DGX-1 hybrid cube-mesh of the paper
// (Fig. 1): 8 V100 GPUs connected pairwise by 2×NVLink (≈96 GB/s measured),
// 1×NVLink (≈48 GB/s) or PCIe, with pairs of GPUs sharing a PCIe Gen3 x16
// switch to one of two host CPUs joined by QPI.
//
// The runtime heuristics consume only the information this package exports:
// which devices hold a replica and how fast each candidate source's route to
// the destination is — the same information the paper's implementation reads
// through cuDeviceGetP2PAttribute.
package topology

import "fmt"

// DeviceID identifies a device in a platform. GPU devices are numbered
// 0..NumGPUs-1; the host CPU memory is the special device Host.
type DeviceID int

// Host is the pseudo-device denoting host (CPU) memory.
const Host DeviceID = -1

// LinkKind classifies the medium of a route between two devices — the
// class of the route's slowest hop.
type LinkKind int

const (
	// LinkNone means no route (e.g. a device to itself uses local copies).
	LinkNone LinkKind = iota
	// LinkNVLink2 is a double NVLink route (≈96 GB/s on DGX-1).
	LinkNVLink2
	// LinkNVLink1 is a single NVLink route (≈48 GB/s on DGX-1).
	LinkNVLink1
	// LinkNVLinkHost is an NVLink CPU<->GPU route (POWER9/Summit nodes).
	LinkNVLinkHost
	// LinkPCIe is a PCIe route, possibly crossing QPI between sockets.
	LinkPCIe
	// LinkNet is a route crossing the inter-node network of a multi-node
	// fabric.
	LinkNet

	// LinkKindCount is the number of LinkKind values; fixed-shape
	// per-route-class accounting arrays are sized by it.
	LinkKindCount
)

func (k LinkKind) String() string {
	switch k {
	case LinkNone:
		return "none"
	case LinkNVLink2:
		return "NV2"
	case LinkNVLink1:
		return "NV1"
	case LinkNVLinkHost:
		return "NVH"
	case LinkPCIe:
		return "PCIe"
	case LinkNet:
		return "Net"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// MetricName reports the kind's metric-name segment (lowercase, no
// punctuation) for per-route-class counters such as
// "cache.route.nvlink2.bytes".
func (k LinkKind) MetricName() string {
	switch k {
	case LinkNone:
		return "none"
	case LinkNVLink2:
		return "nvlink2"
	case LinkNVLink1:
		return "nvlink1"
	case LinkNVLinkHost:
		return "nvlink_host"
	case LinkPCIe:
		return "pcie"
	case LinkNet:
		return "net"
	default:
		return "unknown"
	}
}

// Rank converts a link kind into the relative performance rank used by the
// topology-aware heuristic: higher is faster. This mirrors the relative
// values returned by cuDeviceGetP2PAttribute(PERFORMANCE_RANK).
func (k LinkKind) Rank() int {
	switch k {
	case LinkNVLink2:
		return 3
	case LinkNVLink1:
		return 2
	case LinkNVLinkHost:
		return 2
	case LinkPCIe:
		return 1
	default:
		// LinkNet routes rank below every intra-node route, like host
		// staging.
		return 0
	}
}

// Link describes one directed route (or one fabric edge) between two
// points: its class and sustained bandwidth.
type Link struct {
	Kind LinkKind
	// BandwidthGBs is the sustained bandwidth of the route in GB/s (1e9
	// bytes per second), per direction.
	BandwidthGBs float64
}

// GPUSpec describes the compute side of one GPU.
type GPUSpec struct {
	Name string
	// PeakFP64 is the peak double-precision rate in flop/s.
	PeakFP64 float64
	// MemoryBytes is the device memory capacity.
	MemoryBytes int64
	// LocalCopyGBs is the intra-device copy bandwidth (device-to-itself).
	LocalCopyGBs float64
	// KernelEff scales this GPU's sustained kernel rate relative to
	// PeakFP64 — heterogeneous fleets mix generations with different
	// sustained efficiencies. Zero means 1.0 (no scaling).
	KernelEff float64
}

// Platform is a complete immutable description of a multi-GPU node (or a
// multi-node fleet), backed by a routed fabric graph.
type Platform struct {
	Name string
	// GPU is the reference GPU spec (the spec of every GPU on uniform
	// platforms); GPUSpecOf reports per-device specs.
	GPU GPUSpec

	// NumGPUs is the number of GPU devices.
	NumGPUs int

	// SwitchGBs is the per-direction bandwidth of one PCIe switch uplink.
	SwitchGBs float64
	// InterSocketGBs is the per-direction bandwidth of the CPU-CPU
	// interconnect (QPI on DGX-1).
	InterSocketGBs float64

	// Fabric graph.
	comps []Component
	edges []*Edge
	// gpuComp[g] / hostComp are device endpoint component ids;
	// gpuH2D/gpuD2H the per-GPU DMA edge ids.
	gpuComp    []int
	hostComp   int
	gpuH2D     []int
	gpuD2H     []int
	gpuSpecs   []GPUSpec
	nodeOf     []int
	numNodes   int
	pcieSwitch []int
	numSwitch  int
	socketOf   []int
	numSockets int
	routes     [][]*Path
}

// Validate checks the fabric graph's internal consistency: between 1 and
// MaxGPUs GPUs, well-formed components and edges, unique resource names, a
// route between every ordered device pair, and symmetric route classes. It
// is called by Build (hence by every constructor) and again at registry
// registration.
func (p *Platform) Validate() error {
	if p.NumGPUs <= 0 {
		return fmt.Errorf("topology: platform %q has %d GPUs", p.Name, p.NumGPUs)
	}
	if p.NumGPUs > MaxGPUs {
		return fmt.Errorf("topology: platform %q has %d GPUs, more than the limit of %d (one DeviceSet bit per GPU)",
			p.Name, p.NumGPUs, MaxGPUs)
	}
	if len(p.gpuComp) != p.NumGPUs || len(p.gpuH2D) != p.NumGPUs ||
		len(p.gpuD2H) != p.NumGPUs || len(p.gpuSpecs) != p.NumGPUs ||
		len(p.pcieSwitch) != p.NumGPUs || len(p.nodeOf) != p.NumGPUs {
		return fmt.Errorf("topology: platform %q has inconsistent table sizes", p.Name)
	}
	names := make(map[string]int)
	for _, e := range p.edges {
		if e.From < 0 || e.From >= len(p.comps) || e.To < 0 || e.To >= len(p.comps) {
			return fmt.Errorf("topology: edge %d (%q) has bad endpoints", e.ID, e.Name)
		}
		if e.Class == EdgeVirtual {
			continue
		}
		if e.Name == "" {
			return fmt.Errorf("topology: unnamed physical edge %d", e.ID)
		}
		if prev, dup := names[e.Name]; dup {
			return fmt.Errorf("topology: duplicate edge name %q (edges %d and %d)", e.Name, prev, e.ID)
		}
		names[e.Name] = e.ID
		if e.BandwidthGBs <= 0 {
			return fmt.Errorf("topology: edge %q has bandwidth %g", e.Name, e.BandwidthGBs)
		}
		if e.Kind == LinkNone {
			return fmt.Errorf("topology: edge %q has no link kind", e.Name)
		}
	}
	for i := 0; i < p.NumGPUs; i++ {
		if p.pcieSwitch[i] < 0 || p.pcieSwitch[i] >= p.numSwitch {
			return fmt.Errorf("topology: GPU %d on unknown switch %d", i, p.pcieSwitch[i])
		}
		if p.gpuSpecs[i].PeakFP64 <= 0 || p.gpuSpecs[i].MemoryBytes <= 0 ||
			p.gpuSpecs[i].LocalCopyGBs <= 0 {
			return fmt.Errorf("topology: GPU %d has an incomplete spec", i)
		}
	}
	for s := 0; s < p.numSwitch; s++ {
		if p.socketOf[s] < 0 || p.socketOf[s] >= p.numSockets {
			return fmt.Errorf("topology: switch %d on unknown socket %d", s, p.socketOf[s])
		}
	}
	for si := 0; si <= p.NumGPUs; si++ {
		for di := 0; di <= p.NumGPUs; di++ {
			if si == di {
				continue
			}
			r := p.routes[si][di]
			if r == nil || len(r.Hops) == 0 {
				return fmt.Errorf("topology: missing route %d -> %d", si-1, di-1)
			}
			if r.Kind == LinkNone || r.BandwidthGBs <= 0 {
				return fmt.Errorf("topology: unclassified route %d -> %d", si-1, di-1)
			}
			if back := p.routes[di][si]; back == nil || back.Kind != r.Kind {
				return fmt.Errorf("topology: asymmetric route kind %d <-> %d", si-1, di-1)
			}
		}
	}
	return nil
}

// GPULink reports the directed route between two distinct GPUs: the class
// and bandwidth of the routed path's slowest hop.
func (p *Platform) GPULink(src, dst DeviceID) Link {
	if src == dst {
		return Link{Kind: LinkNone}
	}
	r := p.Route(src, dst)
	return Link{Kind: r.Kind, BandwidthGBs: r.BandwidthGBs}
}

// Link reports the route from src to dst where either may be Host.
func (p *Platform) Link(src, dst DeviceID) Link {
	if src == dst {
		return Link{Kind: LinkNone}
	}
	r := p.Route(src, dst)
	return Link{Kind: r.Kind, BandwidthGBs: r.BandwidthGBs}
}

// P2PPerformanceRank reports the relative performance rank of the route from
// src to dst, higher meaning faster. It is the analogue of
// cuDeviceGetP2PAttribute(CU_DEVICE_P2P_ATTRIBUTE_PERFORMANCE_RANK), with
// host routes ranked below every peer-to-peer route.
func (p *Platform) P2PPerformanceRank(src, dst DeviceID) int {
	if src == Host || dst == Host {
		return 0
	}
	return p.GPULink(src, dst).Kind.Rank()
}

// PCIeSwitchOf reports the PCIe switch id of a GPU (the switch component
// on its route to host memory).
func (p *Platform) PCIeSwitchOf(g DeviceID) int { return p.pcieSwitch[g] }

// NumPCIeSwitches reports how many PCIe switches the platform has.
func (p *Platform) NumPCIeSwitches() int { return p.numSwitch }

// SocketOfSwitch reports the CPU socket of a PCIe switch.
func (p *Platform) SocketOfSwitch(s int) int { return p.socketOf[s] }

// NumSockets reports the number of CPU sockets.
func (p *Platform) NumSockets() int { return p.numSockets }

// SameSwitch reports whether two GPUs hang off the same PCIe switch —
// whether their host routes share the same first fabric component.
func (p *Platform) SameSwitch(a, b DeviceID) bool {
	return p.pcieSwitch[a] == p.pcieSwitch[b]
}

// BandwidthMatrix returns the (NumGPUs+1)² matrix of route bandwidths in
// GB/s, indexed by device with Host mapped to the last row/column. Entries
// are derived from the routed paths (the slowest-hop bandwidth of each
// route); the diagonal holds the local copy bandwidth, reproducing the
// layout of Fig. 2.
func (p *Platform) BandwidthMatrix() [][]float64 {
	n := p.NumGPUs + 1
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	dev := func(i int) DeviceID {
		if i == p.NumGPUs {
			return Host
		}
		return DeviceID(i)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			di, dj := dev(i), dev(j)
			if di == dj {
				if di != Host {
					m[i][j] = p.GPUSpecOf(di).LocalCopyGBs
				}
				continue
			}
			m[i][j] = p.Link(di, dj).BandwidthGBs
		}
	}
	return m
}

// GPUs returns the list of GPU device ids 0..NumGPUs-1.
func (p *Platform) GPUs() []DeviceID {
	ids := make([]DeviceID, p.NumGPUs)
	for i := range ids {
		ids[i] = DeviceID(i)
	}
	return ids
}
