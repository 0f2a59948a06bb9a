package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: a non-positive size, tile or Gantt width used to
// print an all-zero trace, silently fall back to the handle's default tile
// size, or report a non-empty trace as empty. Each is now a usage error
// that names the flag.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-n", "0"}, "-n"},
		{[]string{"-n", "-5"}, "-n"},
		{[]string{"-nb", "0"}, "-nb"},
		{[]string{"-nb", "-1024"}, "-nb"},
		{[]string{"-gantt", "-width", "0"}, "-width"},
		{[]string{"-lib", "NoSuchLib"}, "NoSuchLib"},
		{[]string{"-routine", "GEMV"}, "GEMV"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.flag) {
			t.Errorf("run(%q) stderr %q does not name %s", tc.args, stderr.String(), tc.flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) printed a trace for rejected flags:\n%s", tc.args, stdout.String())
		}
	}
}

func TestRunHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-h) = %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-nb") {
		t.Fatalf("run(-h) printed no usage: %q", stderr.String())
	}
}

// TestRunSmallTraceHasTraffic traces a 4×4-tile GEMM. Every transfer span
// reaches the recorder through the cache's completion records, so the
// traffic line and the per-kind table must both show host-to-device
// copies, and the Gantt chart must not be empty.
func TestRunSmallTraceHasTraffic(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-n", "4096", "-nb", "1024", "-gantt", "-width", "40"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "N=4096 nb=1024") {
		t.Fatalf("header does not echo the flags:\n%s", out)
	}
	m := regexp.MustCompile(`H2D ([0-9.]+) GB \((\d+)\)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no traffic line:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[2]); n == 0 {
		t.Fatalf("no host-to-device transfer recorded:\n%s", out)
	}
	m = regexp.MustCompile(`memcpy HtoD +([0-9.]+)s`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no HtoD row in the per-kind table:\n%s", out)
	}
	if v, _ := strconv.ParseFloat(m[1], 64); v <= 0 {
		t.Fatalf("HtoD busy time %s s, want > 0:\n%s", m[1], out)
	}
	if strings.Contains(out, "(empty trace)") {
		t.Fatalf("Gantt chart reports an empty trace:\n%s", out)
	}
}
