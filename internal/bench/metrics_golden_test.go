package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
)

// goldenMetricsConfig is one quick sweep point with the full metrics
// surface on: resource stats, link-class rollups, cache counters, stall
// histogram and policy decisions all land in the committed snapshot.
func goldenMetricsConfig() Config {
	return Config{
		Libs:     []baseline.Library{baseline.XKBlas()},
		Routines: []blasops.Routine{blasops.Gemm},
		Sizes:    []int{8192},
		Tiles:    []int{2048},
		Runs:     2,
		NoiseAmp: 0.02,
		Metrics:  true,
		Parallel: runtime.NumCPU(),
	}
}

// TestGoldenMetricsJSON locks the metrics sink byte-for-byte, the same way
// TestGoldenSweepParity locks the CSV: any accounting change — a counter
// renamed, a busy-time credited differently, an extra transfer — shows up
// as a diff against testdata/golden_metrics.json. Intentional changes
// regenerate it with `go test ./internal/bench -run GoldenMetrics -update`.
func TestGoldenMetricsJSON(t *testing.T) {
	points := RunSweep(goldenMetricsConfig())
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, points); err != nil {
		t.Fatalf("WriteMetricsJSON: %v", err)
	}
	path := filepath.Join("testdata", "golden_metrics.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	gotLines := bytes.Split(buf.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("line %d:\n  golden: %s\n  got:    %s", i+1, w, g)
		}
	}
	t.Fatal("metrics accounting drifted from the golden JSON; if intentional, regenerate with -update")
}
