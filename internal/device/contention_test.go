package device

import (
	"testing"

	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// xfer describes one transfer of a contention scenario.
type xfer struct {
	src, dst topology.DeviceID
}

// runTransfers starts every transfer at t=0 on a fresh platform and returns
// the makespan (latest delivery time).
func runTransfers(t *testing.T, topo *topology.Platform, bytes int64, xs []xfer) sim.Time {
	t.Helper()
	eng := sim.NewEngine()
	p := NewPlatform(eng, topo)
	var makespan sim.Time
	for _, x := range xs {
		p.Transfer(x.src, x.dst, bytes, sim.JobFunc(func(_, end sim.Time) {
			if end > makespan {
				makespan = end
			}
		}))
	}
	eng.Run()
	return makespan
}

// sharedHop returns the first edge two routes have in common, if any.
func sharedHop(topo *topology.Platform, a, b xfer) (string, bool) {
	ra, rb := topo.Route(a.src, a.dst), topo.Route(b.src, b.dst)
	for _, ea := range ra.Hops {
		for _, eb := range rb.Hops {
			if ea.ID == eb.ID {
				return ea.Name, true
			}
		}
	}
	return "", false
}

// checkContention asserts the fabric-graph contention model: two transfers
// whose routes share a hop finish strictly later together than the slower
// of the two alone (the shared resource serializes them), while transfers
// with fully disjoint routes run at full overlap (makespan equals the
// slower solo run).
func checkContention(t *testing.T, topo *topology.Platform, shared, disjoint [2]xfer, wantHop string) {
	t.Helper()
	const payload = 64 << 20

	if name, ok := sharedHop(topo, shared[0], shared[1]); !ok || name != wantHop {
		t.Fatalf("%s: shared pair %v should collide on %q, got (%q, %v)",
			topo.Name, shared, wantHop, name, ok)
	}
	if name, ok := sharedHop(topo, disjoint[0], disjoint[1]); ok {
		t.Fatalf("%s: disjoint pair %v unexpectedly shares hop %q", topo.Name, disjoint, name)
	}

	soloWorst := func(xs [2]xfer) sim.Time {
		a := runTransfers(t, topo, payload, xs[:1])
		b := runTransfers(t, topo, payload, xs[1:])
		if b > a {
			return b
		}
		return a
	}

	solo := soloWorst(shared)
	both := runTransfers(t, topo, payload, shared[:])
	if both <= solo {
		t.Errorf("%s: transfers sharing %s did not serialize: together %v, slower solo %v",
			topo.Name, wantHop, both, solo)
	}

	solo = soloWorst(disjoint)
	both = runTransfers(t, topo, payload, disjoint[:])
	if both != solo {
		t.Errorf("%s: disjoint-route transfers perturbed each other: together %v, slower solo %v",
			topo.Name, both, solo)
	}
}

// TestQPIContention: on the DGX-1, two cross-socket PCIe peer transfers from
// different switches share only the QPI bridge — they must serialize on it.
// Two NVLink transfers on disjoint links must not interact.
func TestQPIContention(t *testing.T) {
	checkContention(t, topology.DGX1(),
		// 0→5 routes [pcie0.up qpi.0-> pcie2.down]; 2→7 routes
		// [pcie1.up qpi.0-> pcie3.down]: only the QPI hop is shared.
		[2]xfer{{0, 5}, {2, 7}},
		// 0→3 and 4→7 are direct NVLink links with no common edge.
		[2]xfer{{0, 3}, {4, 7}},
		"qpi.0->")
}

// TestNICContention: on a 2-node DGX-1 fleet, two cross-node transfers from
// different source switches share only the inter-node NIC link; transfers
// local to each node never touch it.
func TestNICContention(t *testing.T) {
	topo := topology.MultiNodeDGX1(2)
	checkContention(t, topo,
		// 0→8 routes [pcie0.up net.0->1 pcie4.down]; 2→10 routes
		// [pcie1.up net.0->1 pcie5.down]: only the NIC hop is shared.
		[2]xfer{{0, 8}, {2, 10}},
		// One NVLink transfer per node: fully disjoint routes.
		[2]xfer{{0, 3}, {8, 11}},
		"net.0->1")
}

// TestHostRouteContention: host staging to GPUs on a remote node crosses the
// NIC too, so a host upload and a peer cross-node transfer contend even
// though one of them "is an H2D".
func TestHostRouteContention(t *testing.T) {
	topo := topology.MultiNodeDGX1(2)
	// Host→8 routes [gpu8.h2d net.0->1 pcie4.down]; 2→10 routes
	// [pcie1.up net.0->1 pcie5.down].
	checkContention(t, topo,
		[2]xfer{{topology.Host, 8}, {2, 10}},
		// Host→0 stays on node 0; 8→11 is NVLink on node 1.
		[2]xfer{{topology.Host, 0}, {8, 11}},
		"net.0->1")
}
