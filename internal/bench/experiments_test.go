package bench

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke tests for the figure generators: each must produce well-formed,
// non-error output at quick scale. (Fig3/Fig5 sweeps are exercised in full
// through cmd/xkbench; here the cheaper generators run directly.)

func TestTableIMentionsPlatform(t *testing.T) {
	var buf bytes.Buffer
	TableI(&buf, Config{})
	out := buf.String()
	for _, want := range []string{"V100", "8x", "NVLink", "PCIe"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestFig6QuickBreakdown(t *testing.T) {
	var buf bytes.Buffer
	Fig6(&buf, parallelRun(), true)
	out := buf.String()
	if strings.Contains(out, "ERROR") {
		t.Fatalf("fig6 errors:\n%s", out)
	}
	for _, lib := range []string{"XKBlas", "Chameleon Tile", "cuBLAS-XT", "BLASX", "cuBLAS-MG", "DPLASMA"} {
		if !strings.Contains(out, lib) {
			t.Errorf("fig6 missing %s", lib)
		}
	}
	// XKBlas must show the largest kernel share of the roster (the paper's
	// core trace claim).
	best, bestLib := -1.0, ""
	for _, line := range strings.Split(out, "\n") {
		idx := strings.Index(line, "GPU Kernel")
		if idx < 0 || !strings.Contains(line, "|") {
			continue
		}
		rest := line[idx+len("GPU Kernel"):]
		var share float64
		if _, err := fscan(rest, &share); err != nil {
			continue
		}
		name := strings.TrimSpace(line[:16])
		if share > best {
			best, bestLib = share, name
		}
	}
	if bestLib != "XKBlas" {
		t.Errorf("largest kernel share belongs to %q (%.1f%%), want XKBlas\n%s", bestLib, best, out)
	}
}

func TestFig8QuickOrdering(t *testing.T) {
	var buf bytes.Buffer
	Fig8(&buf, parallelRun(), true)
	out := buf.String()
	if strings.Contains(out, "ERROR") {
		t.Fatalf("fig8 errors:\n%s", out)
	}
	// At the largest quick size, XKBlas must beat Chameleon.
	var xk, ch float64
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "N=32768") {
			var v float64
			if _, err := fscan(strings.Split(line, "N=32768")[1], &v); err == nil {
				if strings.HasPrefix(line, "XKBlas") {
					xk = v
				} else if strings.HasPrefix(line, "Chameleon") {
					ch = v
				}
			}
		}
	}
	if xk <= ch || xk == 0 {
		t.Fatalf("composition ordering wrong: XKBlas %.2f vs Chameleon %.2f\n%s", xk, ch, out)
	}
}

func TestFig9QuickGantt(t *testing.T) {
	var buf bytes.Buffer
	Fig9(&buf, parallelRun(), true)
	out := buf.String()
	if !strings.Contains(out, "GPU7") || !strings.Contains(out, "idle ratio") {
		t.Fatalf("fig9 malformed:\n%s", out)
	}
	// Chameleon's idle ratio must exceed XKBlas' (the sync gaps).
	var ratios []float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "mean kernel-lane idle ratio") {
			var v float64
			if _, err := fscan(line, &v); err == nil {
				ratios = append(ratios, v)
			}
		}
	}
	if len(ratios) != 2 {
		t.Fatalf("want 2 idle ratios, got %v", ratios)
	}
	if ratios[0] <= ratios[1] {
		t.Fatalf("Chameleon idle (%.1f) should exceed XKBlas idle (%.1f)", ratios[0], ratios[1])
	}
}

func TestFig7QuickPerGPU(t *testing.T) {
	var buf bytes.Buffer
	Fig7(&buf, parallelRun(), true)
	out := buf.String()
	if strings.Contains(out, "ERROR") {
		t.Fatalf("fig7 errors:\n%s", out)
	}
	if strings.Count(out, "-- ") != 3 {
		t.Fatalf("want 3 library sections:\n%s", out)
	}
}
