package topology

import (
	"slices"
	"strings"
	"testing"
)

func TestDeviceSetIteratesAscending(t *testing.T) {
	var s DeviceSet
	for _, d := range []DeviceID{63, 5, 0, 17, 5} {
		s = s.With(d)
	}
	var got []DeviceID
	for rest := s; !rest.Empty(); rest = rest.Rest() {
		got = append(got, rest.First())
	}
	if want := []DeviceID{0, 5, 17, 63}; !slices.Equal(got, want) {
		t.Fatalf("iteration = %v, want %v", got, want)
	}
}

func TestDeviceSetEmptyFirst(t *testing.T) {
	var s DeviceSet
	if !s.Empty() || s.First() != -1 {
		t.Fatalf("empty set: Empty %v First %d, want true -1", s.Empty(), s.First())
	}
	if r := s.Rest(); !r.Empty() {
		t.Fatalf("Rest of the empty set = %b, want empty", uint64(r))
	}
}

func TestDeviceSetWithWithoutRoundTrip(t *testing.T) {
	base := DeviceSet(0).With(2).With(9)
	for d := DeviceID(0); d < MaxGPUs; d++ {
		in := base.With(d)
		if !in.Has(d) {
			t.Fatalf("With(%d) lacks %d", d, d)
		}
		out := in.Without(d)
		if out.Has(d) {
			t.Fatalf("Without(%d) still has %d", d, d)
		}
		if want := base.Without(d); out != want {
			t.Fatalf("With(%d).Without(%d) = %b, want %b", d, d, uint64(out), uint64(want))
		}
		if base.Has(d) && in != base {
			t.Fatalf("With(%d) of a member changed the set", d)
		}
	}
	// Host is never a member.
	if s := base.With(Host); s != base || s.Has(Host) || s.Without(Host) != base {
		t.Fatal("Host must not enter or leave a device set")
	}
}

func TestBuildRejectsMoreThanMaxGPUs(t *testing.T) {
	nodes := make([]NodeSpec, 9) // 9 DGX-1 nodes: 72 GPUs
	for i := range nodes {
		nodes[i] = dgx1Node(8)
	}
	p, err := Build("9xDGX-1", nodes, Link{Kind: LinkNet, BandwidthGBs: interNodeGBs})
	if err == nil {
		t.Fatalf("Build of %d GPUs succeeded, want the %d-GPU limit", p.NumGPUs, MaxGPUs)
	}
	if !strings.Contains(err.Error(), "72 GPUs") || !strings.Contains(err.Error(), "limit of 64") {
		t.Fatalf("error %q does not name the GPU count and the limit", err)
	}
	// Eight nodes (64 GPUs) are exactly at the limit.
	p, err = Build("8xDGX-1", nodes[:8], Link{Kind: LinkNet, BandwidthGBs: interNodeGBs})
	if err != nil {
		t.Fatalf("Build of 64 GPUs: %v", err)
	}
	if p.NumGPUs != MaxGPUs {
		t.Fatalf("NumGPUs = %d, want %d", p.NumGPUs, MaxGPUs)
	}
}
