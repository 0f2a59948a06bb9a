package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
	"xkblas/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden parity CSV from the current simulator output")

// goldenConfig is a reduced but representative slice of the `-exp all
// -quick` sweeps: the full Fig. 5 roster plus the Fig. 3 ablations, a
// peer-heavy and a triangular routine, two problem sizes, with the paper's
// noise model on. Every policy axis is exercised — topology ranking,
// optimistic chaining, host-only sources, same-switch filtering, streaming
// eviction, work stealing (with and without migration) and DMDAS.
func goldenConfig() Config {
	return Config{
		Libs: append(Roster(),
			baseline.XKBlasNoHeuristic(),
			baseline.XKBlasNoHeuristicNoTopo()),
		Routines: []blasops.Routine{blasops.Gemm, blasops.Trsm},
		Sizes:    []int{8192, 16384},
		Tiles:    []int{2048, 4096},
		ExtraTilesFor: map[string]bool{
			"cuBLAS-XT": true,
			"Slate":     true,
		},
		Runs:     2,
		NoiseAmp: 0.02,
		Parallel: runtime.NumCPU(),
	}
}

// TestGoldenSweepParity locks the simulated virtual timings: it runs the
// golden sweep through the library API and compares the CSV byte-for-byte
// against testdata/golden_sweep.csv. Any policy or runtime change that
// shifts a virtual clock shows up as a diff here; intentional timing
// changes regenerate the file with `go test ./internal/bench -run Golden
// -update`.
func TestGoldenSweepParity(t *testing.T) {
	points := RunSweep(goldenConfig())
	var buf bytes.Buffer
	if err := WriteCSV(&buf, points); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	path := filepath.Join("testdata", "golden_sweep.csv")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d points)", path, len(points))
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
	t.Fatal("simulated timings drifted from the golden CSV; if intentional, regenerate with -update")
}

// TestGoldenPlatformParity locks the routed timings of the other two legacy
// platforms the fabric graph rebuilt (DGX-2's flat NVSwitch crossbar and the
// Summit node's NVLink-host triplets): a reduced sweep per platform is
// compared byte-for-byte against its golden CSV. Together with
// TestGoldenSweepParity (DGX-1) this is the proof that the declarative
// fabric specs reproduce the legacy link tables' event order exactly.
func TestGoldenPlatformParity(t *testing.T) {
	for _, tc := range []struct {
		file string
		plat *topology.Platform
	}{
		{"golden_dgx2.csv", topology.DGX2WithGPUs(8)},
		{"golden_summit.csv", topology.SummitNode()},
	} {
		t.Run(tc.file, func(t *testing.T) {
			cfg := Config{
				Libs: []baseline.Library{
					baseline.XKBlas(),
					baseline.XKBlasNoHeuristicNoTopo(),
					baseline.CuBLASXT(),
				},
				Routines: []blasops.Routine{blasops.Gemm, blasops.Trsm},
				Sizes:    []int{8192},
				Tiles:    []int{2048},
				Platform: tc.plat,
				Runs:     2,
				NoiseAmp: 0.02,
				Parallel: runtime.NumCPU(),
			}
			points := RunSweep(cfg)
			var buf bytes.Buffer
			if err := WriteCSV(&buf, points); err != nil {
				t.Fatalf("WriteCSV: %v", err)
			}
			path := filepath.Join("testdata", tc.file)
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d points)", path, len(points))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create it): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s timings drifted from the golden CSV; if intentional, regenerate with -update\ngolden:\n%s\ngot:\n%s",
					tc.plat.Name, want, buf.Bytes())
			}
		})
	}
}
