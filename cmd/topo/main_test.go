package main

import (
	"bytes"
	"strings"
	"testing"

	"xkblas/internal/topology"
)

// TestRunBandwidthOnSummit: -bandwidth measures the selected platform, so
// the 6-GPU Summit node gets a Fig. 2 matrix with six GPU rows and a host
// row, and the command exits 0.
func TestRunBandwidthOnSummit(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-platform", "summit", "-bandwidth"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	_, fig2, ok := strings.Cut(stdout.String(), "Fig. 2")
	if !ok {
		t.Fatalf("no Fig. 2 matrix:\n%s", stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(fig2), "\n")
	if len(lines) != 2+6+1 { // title, header, 6 GPUs, host
		t.Fatalf("Fig. 2 matrix has %d lines, want 9:\n%s", len(lines), fig2)
	}
	if head := strings.Fields(lines[1]); len(head) != 1+6+1 || head[6] != "5" || head[7] != "host" {
		t.Fatalf("Fig. 2 header %q does not list GPUs 0-5 and the host", lines[1])
	}
	if !strings.HasPrefix(lines[8], "host") {
		t.Fatalf("last matrix row %q is not the host", lines[8])
	}
}

// TestRunUnknownPlatform: an unknown platform is a usage error that lists
// the registry on stderr and prints nothing on stdout.
func TestRunUnknownPlatform(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-platform", "bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
	for _, name := range append(topology.Names(), `"bogus"`) {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("stderr %q does not name %s", stderr.String(), name)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("printed %q for an unknown platform", stdout.String())
	}
}
