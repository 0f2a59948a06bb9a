package serve

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the serve report goldens in testdata/ from the current replay")

// goldenScenarios are the replays whose text report and metrics snapshot
// are locked byte for byte in testdata/. Between them they cover both
// backpressure policies, queue deadlines firing, the fused-batch path on
// and off, and a long bursty trace.
func goldenScenarios() []struct {
	name string
	cfg  Config
} {
	def := Defaults()
	def.Parallel = 2

	// Block with quotas loose enough that the spill grows past every
	// tier's patience, so queued units age out.
	block := def
	block.Backpressure = Block
	block.Requests = 3000
	block.RatePerSec = 600
	block.Tiers = []Tier{
		{Name: "free", Weight: 0.6, RefillPerSec: 50, Burst: 100, Deadline: 0.5},
		{Name: "standard", Weight: 0.3, RefillPerSec: 50, Burst: 100, Deadline: 2},
		{Name: "premium", Weight: 0.1, RefillPerSec: 50, Burst: 100, Deadline: 0},
	}

	nobatch := def
	nobatch.BatchMax = 1

	bursty := def
	bursty.Requests = 20000

	return []struct {
		name string
		cfg  Config
	}{
		{"default", def},
		{"block_deadlines", block},
		{"nobatch", nobatch},
		{"bursty20k", bursty},
	}
}

// TestReplayGolden locks serve output across changes to the replay: each
// golden scenario's text report and JSON snapshot must match testdata/
// byte for byte. TestReplayDeterministic compares two runs of one build;
// this test is what catches a change that moves the output. Intentional
// model changes regenerate the files with
// `go test ./internal/serve -run Golden -update`.
func TestReplayGolden(t *testing.T) {
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			rep := mustRun(t, sc.cfg)
			var text bytes.Buffer
			rep.WriteText(&text)
			for _, out := range []struct {
				file string
				got  []byte
			}{
				{sc.name + ".txt", text.Bytes()},
				{sc.name + ".json", reportJSON(t, rep)},
			} {
				path := filepath.Join("testdata", out.file)
				if *updateGolden {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, out.got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update to create it): %v", err)
				}
				if !bytes.Equal(out.got, want) {
					t.Errorf("%s drifted from the golden; if intentional, regenerate with -update\n%s",
						path, firstDiff(want, out.got))
				}
			}
		})
	}
}

// firstDiff renders the first line on which two outputs differ.
func firstDiff(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl, gl)
		}
	}
	return "(no line differs)"
}
