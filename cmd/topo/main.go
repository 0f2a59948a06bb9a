// Command topo prints a simulated platform's fabric graph: the link map of
// Fig. 1 (route classes between every GPU pair), per-pair hop counts, and
// the routed bandwidth matrix. -platform selects any registered platform
// (the DGX-1 by default; -platform summit describes the Summit-like node),
// and -bandwidth measures its Fig. 2 bandwidth matrix.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xkblas/internal/bench"
	"xkblas/internal/topology"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run prints the selected platform's fabric graph and returns the exit
// status: 0 on success, 1 when the platform fails validation, 2 on bad
// flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bandwidth := fs.Bool("bandwidth", false, "measure and print the Fig. 2 bandwidth matrix")
	platform := fs.String("platform", "",
		"render a registered platform's fabric graph (see -platform list; default the DGX-1)")
	hops := fs.Bool("hops", false, "also print the per-pair routed hop counts")
	routes := fs.Bool("routes", false, "also print every route's hop-by-hop edge names")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	p := topology.DGX1()
	if *platform != "" {
		if *platform == "list" {
			fmt.Fprintln(stdout, strings.Join(topology.Names(), "\n"))
			return 0
		}
		reg, ok := topology.Lookup(*platform)
		if !ok {
			fmt.Fprintf(stderr, "topo: unknown platform %q; registered platforms: %s\n",
				*platform, strings.Join(topology.Names(), ", "))
			return 2
		}
		p = reg
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintf(stderr, "topo: %s fails validation: %v\n", p.Name, err)
		return 1
	}

	fmt.Fprintf(stdout, "%s — %d GPUs (%s, %.1f TFlop/s FP64, %d GB each)\n",
		p.Name, p.NumGPUs, p.GPU.Name, p.GPU.PeakFP64/1e12, p.GPU.MemoryBytes>>30)
	fmt.Fprintf(stdout, "PCIe switches: %d (%.1f GB/s each, per direction); sockets: %d (inter-socket %.1f GB/s)\n",
		p.NumPCIeSwitches(), p.SwitchGBs, p.NumSockets(), p.InterSocketGBs)
	if n := p.NumNodes(); n > 1 {
		fmt.Fprintf(stdout, "Machine nodes: %d (host memory on node 0; cross-node routes traverse the contended network links)\n", n)
	}
	if hetero := heteroSpecs(p); hetero != "" {
		fmt.Fprintf(stdout, "GPU specs: %s\n", hetero)
	}
	fmt.Fprintf(stdout, "Fabric: %d components, %d edges\n\n", len(p.Components()), len(p.Edges()))

	fmt.Fprintln(stdout, "Link map (NV2 = 2xNVLink, NV1 = 1xNVLink, NVH = NVLink-host, PCIe, Net = inter-node):")
	fmt.Fprint(stdout, "     ")
	for j := 0; j < p.NumGPUs; j++ {
		fmt.Fprintf(stdout, "%6d", j)
	}
	fmt.Fprintln(stdout)
	for i := 0; i < p.NumGPUs; i++ {
		fmt.Fprintf(stdout, "GPU%d ", i)
		for j := 0; j < p.NumGPUs; j++ {
			if i == j {
				fmt.Fprintf(stdout, "%6s", "-")
				continue
			}
			fmt.Fprintf(stdout, "%6s", p.Link(topology.DeviceID(i), topology.DeviceID(j)).Kind)
		}
		fmt.Fprintf(stdout, "   switch %d, rank-to-host %d\n", p.PCIeSwitchOf(topology.DeviceID(i)),
			p.P2PPerformanceRank(topology.Host, topology.DeviceID(i)))
	}

	if *hops {
		fmt.Fprintln(stdout, "\nRouted hop counts (charged hops per transfer; host row/column included):")
		printDeviceMatrix(stdout, p, func(src, dst topology.DeviceID) string {
			if src == dst {
				return "-"
			}
			return fmt.Sprintf("%d", p.HopDistance(src, dst))
		})
	}

	if *routes {
		fmt.Fprintln(stdout, "\nRoutes (slowest charged hop defines the class):")
		each := func(src, dst topology.DeviceID) {
			if src == dst {
				return
			}
			r := p.Route(src, dst)
			names := make([]string, len(r.Hops))
			for i, e := range r.Hops {
				names[i] = e.Name
			}
			fmt.Fprintf(stdout, "  %s -> %s: [%s] (%s, %.1f GB/s)\n",
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

	fmt.Fprintln(stdout, "\nRouted bandwidth matrix (GB/s; slowest-hop bandwidth, diagonal = local copy):")
	m := p.BandwidthMatrix()
	printDeviceMatrix(stdout, p, func(src, dst topology.DeviceID) string {
		return fmt.Sprintf("%.1f", m[matIdx(p, src)][matIdx(p, dst)])
	})

	if *bandwidth {
		fmt.Fprintln(stdout)
		bench.Fig2BandwidthMatrix(stdout, bench.Config{Platform: p})
	}
	return 0
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
func printDeviceMatrix(w io.Writer, p *topology.Platform, cell func(src, dst topology.DeviceID) string) {
	devOf := func(i int) topology.DeviceID {
		if i == p.NumGPUs {
			return topology.Host
		}
		return topology.DeviceID(i)
	}
	fmt.Fprint(w, "     ")
	for j := 0; j <= p.NumGPUs; j++ {
		if j == p.NumGPUs {
			fmt.Fprintf(w, "%8s", "host")
		} else {
			fmt.Fprintf(w, "%8d", j)
		}
	}
	fmt.Fprintln(w)
	for i := 0; i <= p.NumGPUs; i++ {
		if i == p.NumGPUs {
			fmt.Fprintf(w, "%-5s", "host")
		} else {
			fmt.Fprintf(w, "GPU%-2d", i)
		}
		for j := 0; j <= p.NumGPUs; j++ {
			src, dst := devOf(i), devOf(j)
			if src == topology.Host && dst == topology.Host {
				fmt.Fprintf(w, "%8s", "-")
				continue
			}
			fmt.Fprintf(w, "%8s", cell(src, dst))
		}
		fmt.Fprintln(w)
	}
}
