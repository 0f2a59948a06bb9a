package bench

import (
	"bytes"
	"strings"
	"testing"

	"xkblas/internal/trace"
)

// Checks of the figure generators at quick scale, on the rows of
// quickRows. (Fig3/Fig5 sweeps are exercised in full through cmd/xkbench;
// here the cheaper generators run directly.)

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

// kindIndex is the position of kind k in trace.Kinds, the column order of
// the per-kind rows.
func kindIndex(k trace.OpKind) int {
	for i, kk := range trace.Kinds() {
		if kk == k {
			return i
		}
	}
	panic("unknown kind")
}

func TestFig6QuickBreakdown(t *testing.T) {
	rows := measured(quickRows()["fig6"])
	libs := map[string]bool{}
	// XKBlas must show the largest kernel share of the roster (the paper's
	// core trace claim). A row holds the cumulative seconds, then the
	// normalized shares.
	best, bestLib := -1.0, ""
	kernel := len(trace.Kinds()) + kindIndex(trace.OpKernel)
	for _, r := range rows {
		if r.Err != nil {
			t.Fatalf("fig6 errors:\n%s", dump(rows))
		}
		name := strings.TrimSpace(r.Label)
		libs[name] = true
		if share := r.Values[kernel]; share > best {
			best, bestLib = share, name
		}
	}
	for _, lib := range []string{"XKBlas", "Chameleon Tile", "cuBLAS-XT", "BLASX", "cuBLAS-MG", "DPLASMA"} {
		if !libs[lib] {
			t.Errorf("fig6 missing %s", lib)
		}
	}
	if bestLib != "XKBlas" {
		t.Errorf("largest kernel share belongs to %q (%.1f%%), want XKBlas\n%s", bestLib, best, dump(rows))
	}
}

func TestFig8QuickOrdering(t *testing.T) {
	rows := quickRows()["fig8"]
	// At the largest quick size, XKBlas must beat Chameleon.
	var xk, ch float64
	for _, r := range measured(rows) {
		if r.Err != nil {
			t.Fatalf("fig8 errors:\n%s", dump(rows))
		}
		if !strings.HasSuffix(r.Label, "N=32768 ") {
			continue
		}
		if strings.HasPrefix(r.Label, "XKBlas") {
			xk = r.Values[0]
		} else if strings.HasPrefix(r.Label, "Chameleon") {
			ch = r.Values[0]
		}
	}
	if xk <= ch || xk == 0 {
		t.Fatalf("composition ordering wrong: XKBlas %.2f vs Chameleon %.2f\n%s", xk, ch, dump(rows))
	}
}

func TestFig9QuickGantt(t *testing.T) {
	rows := quickRows()["fig9"]
	if len(rowsWithPrefix(rows, "GPU7 ")) != 2 {
		t.Fatalf("fig9 draws no GPU7 lane per library:\n%s", dump(rows))
	}
	// Chameleon's idle ratio must exceed XKBlas' (the sync gaps).
	var ratios []float64
	for _, r := range rowsWithPrefix(rows, "mean kernel-lane idle ratio") {
		ratios = append(ratios, r.Values[0])
	}
	if len(ratios) != 2 {
		t.Fatalf("want 2 idle ratios, got %v", ratios)
	}
	if ratios[0] <= ratios[1] {
		t.Fatalf("Chameleon idle (%.1f) should exceed XKBlas idle (%.1f)", ratios[0], ratios[1])
	}
}

// perGPURows counts, for each "-- <lib>" section of Fig. 7's rows, the
// measurement rows that follow it: one per GPU.
func perGPURows(t *testing.T, rows []Row) map[string]int {
	t.Helper()
	out := map[string]int{}
	lib := ""
	for _, r := range measured(rows) {
		if r.Err != nil {
			t.Fatalf("fig7 errors:\n%s", dump(rows))
		}
		if strings.HasPrefix(r.Label, "-- ") {
			lib = r.Label
			out[lib] = 0
			continue
		}
		if len(r.Values) != len(trace.Kinds()) {
			t.Fatalf("fig7 GPU row %q has %d values, want one per kind", r, len(r.Values))
		}
		out[lib]++
	}
	return out
}

func TestFig7QuickPerGPU(t *testing.T) {
	rows := perGPURows(t, quickRows()["fig7"])
	if len(rows) != 3 {
		t.Fatalf("want 3 library sections, got %v", rows)
	}
	for lib, n := range rows {
		if n != 8 {
			t.Errorf("fig7 %s: %d GPU rows, want 8", lib, n)
		}
	}
}
