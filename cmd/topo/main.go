// Command topo prints a simulated platform's fabric graph: the link map of
// Fig. 1 (route classes between every GPU pair), per-pair hop counts, and
// the routed bandwidth matrix. -platform selects any registered platform
// (the DGX-1 by default; -platform summit describes the Summit-like node).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"xkblas/internal/bench"
	"xkblas/internal/topology"
)

func main() {
	bandwidth := flag.Bool("bandwidth", false, "measure and print the Fig. 2 bandwidth matrix")
	platform := flag.String("platform", "",
		"render a registered platform's fabric graph (see -platform list; default the DGX-1)")
	hops := flag.Bool("hops", false, "also print the per-pair routed hop counts")
	routes := flag.Bool("routes", false, "also print every route's hop-by-hop edge names")
	flag.Parse()

	p := topology.DGX1()
	if *platform != "" {
		if *platform == "list" {
			fmt.Println(strings.Join(topology.Names(), "\n"))
			return
		}
		reg, ok := topology.Lookup(*platform)
		if !ok {
			fmt.Fprintf(os.Stderr, "topo: unknown platform %q; registered platforms: %s\n",
				*platform, strings.Join(topology.Names(), ", "))
			os.Exit(2)
		}
		p = reg
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "topo: %s fails validation: %v\n", p.Name, err)
		os.Exit(1)
	}

	fmt.Printf("%s — %d GPUs (%s, %.1f TFlop/s FP64, %d GB each)\n",
		p.Name, p.NumGPUs, p.GPU.Name, p.GPU.PeakFP64/1e12, p.GPU.MemoryBytes>>30)
	fmt.Printf("PCIe switches: %d (%.1f GB/s each, per direction); sockets: %d (inter-socket %.1f GB/s)\n",
		p.NumPCIeSwitches(), p.SwitchGBs, p.NumSockets(), p.InterSocketGBs)
	if n := p.NumNodes(); n > 1 {
		fmt.Printf("Machine nodes: %d (host memory on node 0; cross-node routes traverse the contended network links)\n", n)
	}
	if hetero := heteroSpecs(p); hetero != "" {
		fmt.Printf("GPU specs: %s\n", hetero)
	}
	fmt.Printf("Fabric: %d components, %d edges\n\n", len(p.Components()), len(p.Edges()))

	fmt.Println("Link map (NV2 = 2xNVLink, NV1 = 1xNVLink, NVH = NVLink-host, PCIe, Net = inter-node):")
	fmt.Print("     ")
	for j := 0; j < p.NumGPUs; j++ {
		fmt.Printf("%6d", j)
	}
	fmt.Println()
	for i := 0; i < p.NumGPUs; i++ {
		fmt.Printf("GPU%d ", i)
		for j := 0; j < p.NumGPUs; j++ {
			if i == j {
				fmt.Printf("%6s", "-")
				continue
			}
			fmt.Printf("%6s", p.Link(topology.DeviceID(i), topology.DeviceID(j)).Kind)
		}
		fmt.Printf("   switch %d, rank-to-host %d\n", p.PCIeSwitchOf(topology.DeviceID(i)),
			p.P2PPerformanceRank(topology.Host, topology.DeviceID(i)))
	}

	if *hops {
		fmt.Println("\nRouted hop counts (charged hops per transfer; host row/column included):")
		printDeviceMatrix(p, func(src, dst topology.DeviceID) string {
			if src == dst {
				return "-"
			}
			return fmt.Sprintf("%d", p.HopDistance(src, dst))
		})
	}

	if *routes {
		fmt.Println("\nRoutes (slowest charged hop defines the class):")
		each := func(src, dst topology.DeviceID) {
			if src == dst {
				return
			}
			r := p.Route(src, dst)
			names := make([]string, len(r.Hops))
			for i, e := range r.Hops {
				names[i] = e.Name
			}
			fmt.Printf("  %s -> %s: [%s] (%s, %.1f GB/s)\n",
				devName(src), devName(dst), strings.Join(names, ", "), r.Kind, r.BandwidthGBs)
		}
		for i := -1; i < p.NumGPUs; i++ {
			for j := -1; j < p.NumGPUs; j++ {
				if i == -1 && j == -1 {
					continue
				}
				each(topology.DeviceID(i), topology.DeviceID(j))
			}
		}
	}

	fmt.Println("\nRouted bandwidth matrix (GB/s; slowest-hop bandwidth, diagonal = local copy):")
	m := p.BandwidthMatrix()
	printDeviceMatrix(p, func(src, dst topology.DeviceID) string {
		return fmt.Sprintf("%.1f", m[matIdx(p, src)][matIdx(p, dst)])
	})

	if *bandwidth {
		if p.Name != topology.DGX1().Name {
			fmt.Fprintln(os.Stderr, "-bandwidth matrix is generated for the DGX-1 only")
			os.Exit(2)
		}
		fmt.Println()
		bench.Fig2BandwidthMatrix(os.Stdout, bench.Config{})
	}
}

// heteroSpecs summarizes per-GPU specs when the fleet mixes models.
func heteroSpecs(p *topology.Platform) string {
	counts := map[string]int{}
	var order []string
	for _, id := range p.GPUs() {
		n := p.GPUSpecOf(id).Name
		if counts[n] == 0 {
			order = append(order, n)
		}
		counts[n]++
	}
	if len(order) < 2 {
		return ""
	}
	parts := make([]string, len(order))
	for i, n := range order {
		parts[i] = fmt.Sprintf("%dx %s", counts[n], n)
	}
	return strings.Join(parts, ", ")
}

// matIdx maps a device id to its BandwidthMatrix row/column.
func matIdx(p *topology.Platform, d topology.DeviceID) int {
	if d == topology.Host {
		return p.NumGPUs
	}
	return int(d)
}

func devName(d topology.DeviceID) string {
	if d == topology.Host {
		return "host"
	}
	return fmt.Sprintf("GPU%d", d)
}

// printDeviceMatrix renders an (N+1)x(N+1) device matrix (host last) with
// the given cell function.
func printDeviceMatrix(p *topology.Platform, cell func(src, dst topology.DeviceID) string) {
	devOf := func(i int) topology.DeviceID {
		if i == p.NumGPUs {
			return topology.Host
		}
		return topology.DeviceID(i)
	}
	fmt.Print("     ")
	for j := 0; j <= p.NumGPUs; j++ {
		if j == p.NumGPUs {
			fmt.Printf("%8s", "host")
		} else {
			fmt.Printf("%8d", j)
		}
	}
	fmt.Println()
	for i := 0; i <= p.NumGPUs; i++ {
		if i == p.NumGPUs {
			fmt.Printf("%-5s", "host")
		} else {
			fmt.Printf("GPU%-2d", i)
		}
		for j := 0; j <= p.NumGPUs; j++ {
			src, dst := devOf(i), devOf(j)
			if src == topology.Host && dst == topology.Host {
				fmt.Printf("%8s", "-")
				continue
			}
			fmt.Printf("%8s", cell(src, dst))
		}
		fmt.Println()
	}
}
