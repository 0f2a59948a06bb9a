package device

import (
	"fmt"

	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// TransferOverhead is the fixed setup cost of one DMA transfer (driver call,
// engine programming).
const TransferOverhead = sim.Time(10e-6)

// LinkModel selects how contended interconnect resources serve concurrent
// transfers.
type LinkModel int

const (
	// LinksFIFO serializes transfers per resource (default; matches the
	// paper's measured per-transfer bandwidths).
	LinksFIFO LinkModel = iota
	// LinksFairShare multiplexes concurrent transfers at equal rates
	// (processor sharing). BenchmarkAblationLinkModel shows the headline
	// results are robust to the choice.
	LinksFairShare
)

// GPU is one simulated accelerator.
type GPU struct {
	ID topology.DeviceID

	// Kernel is the serial kernel stream: large BLAS tiles saturate the
	// SMs, so concurrent kernels on one GPU gain almost nothing and the
	// paper's libraries effectively serialize them per device. Its rate is
	// the GPU's own spec (heterogeneous fleets mix peak rates and
	// sustained efficiencies).
	Kernel *sim.Server

	// H2D and D2H are the DMA copy engines for host transfers; V100 copy
	// engines are independent per direction, which is what lets XKaapi run
	// each operation type on its own stream (§II-B). They are the fabric
	// graph's HostDMA edges.
	H2D sim.Resource
	D2H sim.Resource

	// Local is the on-device copy engine (Fig. 2 diagonal).
	Local sim.Resource

	// Mem is the device memory pool.
	Mem *MemPool
}

// PinRateGBs is the modelled host page-locking throughput: registering
// memory with the CUDA driver walks and locks pages at a few GB/s. The
// paper's methodology excludes this cost ("we assume that applications
// have the capacity to amortize this cost", §IV-A); the model makes it
// explicit so the assumption can be tested.
const PinRateGBs = 5.0

// Platform is a live simulated multi-GPU node: one contended resource per
// physical fabric edge, with routes precomputed from the topology's fabric
// graph so every transfer charges every hop of its path.
type Platform struct {
	Eng   *sim.Engine
	Topo  *topology.Platform
	Model *KernelModel
	GPUs  []*GPU

	// Pinner serializes host memory registration (a single driver-level
	// operation stream).
	Pinner *sim.Server

	// Host is the host CPU BLAS execution stream (one socket-parallel BLAS
	// call at a time, the way a threaded CPU BLAS serializes calls), rated
	// at HostModel.PeakFP64 effective flops per second. The batched
	// dispatch crossover sends sub-threshold instances here instead of
	// paying the device transfer cost. Runs that never dispatch to the
	// host leave it idle — it generates no events and does not perturb the
	// device-side event order.
	Host *sim.Server

	// HostModel converts routine shapes into host CPU execution times.
	HostModel *KernelModel

	// Links reports the active link model.
	Links LinkModel

	// linkRes[e.ID] is the contended resource realizing fabric edge e
	// (nil for virtual edges).
	linkRes []sim.Resource
	// routes[src+1][dst+1] is the precomputed hop list of the routed path
	// (diagonal entries route over the local copy engine).
	routes [][][]sim.Resource

	// resources is every contended resource of the node tagged with its
	// class, in the deterministic construction order (kernels and copy
	// engines per GPU id, then the remaining fabric edges in declaration
	// order — NVLinks, PCIe switches, QPI, inter-node network — then the
	// pinner). The metrics layer walks it to publish per-resource
	// utilization and the per-class rollups of Table 3.
	resources []ClassedResource
}

// ResourceClass labels a contended resource for the per-link-class traffic
// rollups (Table 3 reproduces kernel occupancy and per-class byte volumes).
type ResourceClass int

const (
	ClassKernel ResourceClass = iota
	ClassH2D
	ClassD2H
	ClassLocal
	ClassNVLink
	ClassPCIe
	ClassQPI
	ClassNet
	ClassPin
	ClassHost
	numResourceClasses
)

// String reports the class's metric-name segment.
func (c ResourceClass) String() string {
	switch c {
	case ClassKernel:
		return "kernel"
	case ClassH2D:
		return "h2d"
	case ClassD2H:
		return "d2h"
	case ClassLocal:
		return "local"
	case ClassNVLink:
		return "nvlink"
	case ClassPCIe:
		return "pcie"
	case ClassQPI:
		return "qpi"
	case ClassNet:
		return "net"
	case ClassPin:
		return "pin"
	case ClassHost:
		return "host"
	default:
		return "unknown"
	}
}

// classOfEdge maps a fabric edge class to its metrics resource class.
func classOfEdge(c topology.EdgeClass) ResourceClass {
	switch c {
	case topology.EdgeH2D:
		return ClassH2D
	case topology.EdgeD2H:
		return ClassD2H
	case topology.EdgeNVLink:
		return ClassNVLink
	case topology.EdgePCIe:
		return ClassPCIe
	case topology.EdgeQPI:
		return ClassQPI
	case topology.EdgeNet:
		return ClassNet
	default:
		return ClassPCIe
	}
}

// ClassedResource pairs a contended resource with its traffic class.
type ClassedResource struct {
	Class ResourceClass
	Res   sim.Resource
}

// Resources lists every contended resource with its class, in deterministic
// construction order.
func (p *Platform) Resources() []ClassedResource { return p.resources }

// NewPlatform instantiates topo on a fresh simulation engine with FIFO
// links.
func NewPlatform(eng *sim.Engine, topo *topology.Platform) *Platform {
	return NewPlatformWithLinks(eng, topo, LinksFIFO)
}

// NewPlatformWithLinks instantiates topo with an explicit link model.
func NewPlatformWithLinks(eng *sim.Engine, topo *topology.Platform, links LinkModel) *Platform {
	hostModel := DefaultHostModel()
	p := &Platform{
		Eng:       eng,
		Topo:      topo,
		Model:     DefaultKernelModel(topo.GPU.PeakFP64),
		Pinner:    sim.NewServer(eng, "host.pin", PinRateGBs*1e9),
		Host:      sim.NewServer(eng, "host.blas", hostModel.PeakFP64),
		HostModel: hostModel,
		Links:     links,
	}
	mkLink := func(name string, rate float64) sim.Resource {
		if links == LinksFairShare {
			return sim.NewFairServer(eng, name, rate)
		}
		return sim.NewServer(eng, name, rate)
	}
	gb := 1e9
	edges := topo.Edges()
	p.linkRes = make([]sim.Resource, len(edges))
	for _, id := range topo.GPUs() {
		spec := topo.GPUSpecOf(id)
		rate := spec.PeakFP64
		if spec.KernelEff != 0 && spec.KernelEff != 1 {
			rate *= spec.KernelEff
		}
		h2dE, d2hE := topo.HostDMAEdges(id)
		g := &GPU{
			ID:     id,
			Kernel: sim.NewServer(eng, fmt.Sprintf("gpu%d.kernel", id), rate),
			H2D:    mkLink(h2dE.Name, h2dE.BandwidthGBs*gb),
			D2H:    mkLink(d2hE.Name, d2hE.BandwidthGBs*gb),
			Local:  mkLink(fmt.Sprintf("gpu%d.local", id), spec.LocalCopyGBs*gb),
			Mem:    NewMemPool(spec.MemoryBytes),
		}
		p.linkRes[h2dE.ID] = g.H2D
		p.linkRes[d2hE.ID] = g.D2H
		p.GPUs = append(p.GPUs, g)
	}
	// One contended resource per remaining physical fabric edge, in
	// declaration order.
	for _, e := range edges {
		if e.Class == topology.EdgeVirtual || p.linkRes[e.ID] != nil {
			continue
		}
		p.linkRes[e.ID] = mkLink(e.Name, e.BandwidthGBs*gb)
	}
	for _, g := range p.GPUs {
		p.resources = append(p.resources,
			ClassedResource{ClassKernel, g.Kernel},
			ClassedResource{ClassH2D, g.H2D},
			ClassedResource{ClassD2H, g.D2H},
			ClassedResource{ClassLocal, g.Local})
	}
	for _, e := range edges {
		if e.Class == topology.EdgeVirtual || e.HostDMA {
			continue
		}
		p.resources = append(p.resources, ClassedResource{classOfEdge(e.Class), p.linkRes[e.ID]})
	}
	p.resources = append(p.resources, ClassedResource{ClassPin, p.Pinner})
	p.resources = append(p.resources, ClassedResource{ClassHost, p.Host})

	// Precompute every route's hop list so the transfer hot path never
	// allocates and every transfer charges every hop of its fabric path.
	n := topo.NumGPUs
	p.routes = make([][][]sim.Resource, n+1)
	for si := 0; si <= n; si++ {
		p.routes[si] = make([][]sim.Resource, n+1)
		for di := 0; di <= n; di++ {
			src, dst := topology.DeviceID(si-1), topology.DeviceID(di-1)
			if src == dst {
				if src != topology.Host {
					p.routes[si][di] = []sim.Resource{p.GPUs[src].Local}
				}
				continue
			}
			path := topo.Route(src, dst)
			hops := make([]sim.Resource, len(path.Hops))
			for k, e := range path.Hops {
				hops[k] = p.linkRes[e.ID]
			}
			p.routes[si][di] = hops
		}
	}
	return p
}

// GPU returns the simulated GPU with the given id.
func (p *Platform) GPU(id topology.DeviceID) *GPU { return p.GPUs[id] }

// Reset returns every contended resource and memory pool to its initial
// idle state so the platform can be reused across repetitions. Call it
// after Engine.Reset (pending completions must already be dropped) and
// after the software cache has discarded its replicas; a reset platform
// reproduces the event order of a freshly built one. Kernel-noise state is
// NOT touched here — re-arm it with Model.EnableNoise per repetition, which
// is also what a fresh build requires.
func (p *Platform) Reset() {
	for _, cr := range p.resources {
		cr.Res.Reset()
	}
	for _, g := range p.GPUs {
		g.Mem.Reset()
	}
}

// ReserveMemory sets every GPU's usable memory to its spec capacity less
// the given fraction (0 restores full capacity), modelling allocator
// overheads such as BLASX's duplicated cache tiers. Call it on empty pools:
// at build time or right after Reset.
func (p *Platform) ReserveMemory(frac float64) {
	for _, g := range p.GPUs {
		capacity := p.Topo.GPUSpecOf(g.ID).MemoryBytes
		if frac != 0 {
			capacity = int64(float64(capacity) * (1 - frac))
		}
		g.Mem.capacity = capacity
	}
}

// Route returns the ordered resource hops a transfer src→dst crosses: the
// charged hops of the topology's routed path, DMA engines first. Every hop
// queues the full payload; completion is the latest hop completion (see
// sim.Transfer). dst == src routes over the local copy engine. Callers
// must not mutate the returned slice.
func (p *Platform) Route(src, dst topology.DeviceID) []sim.Resource {
	hops := p.routes[int(src)+1][int(dst)+1]
	if hops == nil {
		panic("device: host-to-host transfer")
	}
	return hops
}

// Transfer moves bytes from src to dst and notifies done (may be nil) with
// the transfer's (start, end) once the payload has fully arrived. It is
// sim.Transfer over the routed hops, so a warm transfer allocates nothing.
func (p *Platform) Transfer(src, dst topology.DeviceID, bytes int64, done sim.JobDone) {
	sim.Transfer(p.Eng, p.Route(src, dst), float64(bytes), TransferOverhead, done)
}

// TransferEstimate reports the unloaded duration of a transfer (bottleneck
// hop service time plus overhead); schedulers with cost models (DMDAS) use
// it without perturbing resource state.
func (p *Platform) TransferEstimate(src, dst topology.DeviceID, bytes int64) sim.Time {
	if src == dst {
		return 0
	}
	var worst sim.Time
	for _, hop := range p.Route(src, dst) {
		if t := hop.ServiceTime(float64(bytes), 0); t > worst {
			worst = t
		}
	}
	return worst + TransferOverhead
}

// LinkBusyUntil reports the earliest time the bottleneck hop of the route
// src→dst could start a new job — a congestion signal for schedulers.
func (p *Platform) LinkBusyUntil(src, dst topology.DeviceID) sim.Time {
	var worst sim.Time
	for _, hop := range p.Route(src, dst) {
		if t := hop.AvailableAt(); t > worst {
			worst = t
		}
	}
	return worst
}
