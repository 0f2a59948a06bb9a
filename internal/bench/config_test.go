package bench

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"xkblas/internal/check"
	"xkblas/internal/topology"
)

// parallelRun is the run-wide Config of the driver tests: every host CPU,
// no audit, no metrics.
func parallelRun() Config { return Config{Parallel: runtime.NumCPU()} }

// TestNoExportedPackageVars keeps Config the only way to set a run: no
// non-test file of the package may declare an exported package-level
// variable, so nothing outside a leaf's Config and request can change the
// leaf.
func TestNoExportedPackageVars(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if id.IsExported() {
						t.Errorf("%s: exported package variable %s; carry it in Config instead",
							fset.Position(id.Pos()), id.Name)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no package files parsed")
	}
}

// TestCheckAuditsHandleDrivers locks -check coverage of the drivers that
// build core handles themselves: with Config.Check each run drains under
// the auditor, so the process-wide clean-drain count grows and no
// violation appears.
func TestCheckAuditsHandleDrivers(t *testing.T) {
	run := Config{Check: true}
	for _, tc := range []struct {
		name string
		fn   func(io.Writer, Config, bool)
	}{
		{"hermitian", Hermitian},
		{"pinning", PinningCost},
		{"factor", Factorizations},
		{"bign", func(w io.Writer, cfg Config, quick bool) { BigN(w, cfg, quick) }},
	} {
		drains, violations := check.Stats()
		var buf bytes.Buffer
		tc.fn(&buf, run, true)
		d, v := check.Stats()
		if d <= drains {
			t.Errorf("%s: no audited drain under Check (%d before, %d after)", tc.name, drains, d)
		}
		if v != violations {
			t.Errorf("%s: %d coherence violations", tc.name, v-violations)
		}
		if strings.Contains(buf.String(), "ERROR") {
			t.Errorf("%s reported errors:\n%s", tc.name, buf.String())
		}
	}
}

// TestPerGPUFiguresFollowPlatform locks Fig. 7 and Fig. 9 to the run's
// GPU count: on the 6-GPU Summit node each library gets exactly six
// per-GPU rows and six Gantt lanes.
func TestPerGPUFiguresFollowPlatform(t *testing.T) {
	run := parallelRun()
	run.Platform = topology.SummitNode()

	var fig7 bytes.Buffer
	Fig7(&fig7, run, true)
	rows := map[string]int{}
	lib := ""
	for _, line := range strings.Split(fig7.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "-- "):
			lib = line
		case lib != "" && line != "" && line[0] >= '1' && line[0] <= '9':
			rows[lib]++
		}
	}
	if len(rows) != 3 {
		t.Fatalf("fig7: want 3 library sections with GPU rows, got %v:\n%s", rows, fig7.String())
	}
	for lib, n := range rows {
		if n != 6 {
			t.Errorf("fig7 %s: %d GPU rows, want 6", lib, n)
		}
	}

	var fig9 bytes.Buffer
	Fig9(&fig9, run, true)
	out := fig9.String()
	if got := strings.Count(out, "\nGPU"); got != 2*6 {
		t.Errorf("fig9: %d Gantt lanes over 2 libraries, want 12:\n%s", got, out)
	}
	if strings.Contains(out, "GPU6 ") || strings.Contains(out, "GPU7 ") {
		t.Errorf("fig9 draws lanes past the platform's GPUs:\n%s", out)
	}
}

// TestTableIGenericPlatform covers the explicit-platform branch of Table
// I: the generic rendering names the platform and its GPU count.
func TestTableIGenericPlatform(t *testing.T) {
	var buf bytes.Buffer
	TableI(&buf, Config{Platform: topology.SummitNode()})
	out := buf.String()
	plat := topology.SummitNode()
	for _, want := range []string{"Main characteristics of " + plat.Name, "6x", "host links"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DGX-1") {
		t.Errorf("generic Table I kept the DGX-1 wording:\n%s", out)
	}
}

// TestSummitPredictionPlatformRow covers the explicit-platform branch of
// the Summit extension: the run's platform joins as a fourth row and
// labels the per-heuristic split.
func TestSummitPredictionPlatformRow(t *testing.T) {
	run := parallelRun()
	run.Platform = topology.DGX2WithGPUs(4)
	var buf bytes.Buffer
	SummitPrediction(&buf, run, true)
	out := buf.String()
	name := run.Platform.Name
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, name) {
			rows = append(rows, line)
		}
	}
	if len(rows) != 2 {
		t.Fatalf("want the %q table row and split line, got %q:\n%s", name, rows, out)
	}
	if !strings.HasPrefix(rows[1], name+" optimistic-only contribution:") {
		t.Fatalf("split line not labelled with the run's platform: %q", rows[1])
	}
	var on, off, gain float64
	if _, err := fscan(strings.TrimPrefix(rows[0], name), &on, &off, &gain); err != nil || on <= 0 || off <= 0 {
		t.Fatalf("platform row has no measurements (%v): %q", err, rows[0])
	}
}
