package bench

import (
	"bytes"
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"xkblas/internal/check"
	"xkblas/internal/topology"
	"xkblas/internal/xkrt"
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

// TestCheckAuditsHandleDrivers locks -check coverage of the handle-level
// drivers (the extensions that submit through baseline's StdLib.Call, and
// bign, which builds its own handle): with Config.Check each run drains
// under the auditor, so the process-wide clean-drain count grows and no
// violation appears.
func TestCheckAuditsHandleDrivers(t *testing.T) {
	run := Config{Check: true}
	for _, tc := range []struct {
		name string
		fn   func(Config) []error
	}{
		{"hermitian", rowErrs(Hermitian)},
		{"pinning", rowErrs(PinningCost)},
		{"factor", rowErrs(Factorizations)},
		{"bign", rowErrs(bigNRows)},
	} {
		drains, violations := check.Stats()
		errs := tc.fn(run)
		d, v := check.Stats()
		if d <= drains {
			t.Errorf("%s: no audited drain under Check (%d before, %d after)", tc.name, drains, d)
		}
		if v != violations {
			t.Errorf("%s: %d coherence violations", tc.name, v-violations)
		}
		if err := errors.Join(errs...); err != nil {
			t.Errorf("%s reported errors: %v", tc.name, err)
		}
	}
}

// rowErrs runs a row driver at quick scale and returns the error of each
// of its measurement rows.
func rowErrs(fn func(io.Writer, Config, bool) []Row) func(Config) []error {
	return func(cfg Config) []error {
		var errs []error
		for _, r := range measured(fn(io.Discard, cfg, true)) {
			errs = append(errs, r.Err)
		}
		return errs
	}
}

// TestHandleDriversCancelled: once the run's context is done, the
// experiments start no simulation — no audited drain appears under Check —
// and every measurement row reports the cancellation instead of a value:
// no measured value, and no gain, ratio or summary derived from one. Each
// driver prints exactly the rows it returns, and apart from its
// measurement rows only its titles, headings and reference notes. Every
// big-N configuration, at quick and at full scale, reports the
// cancellation in its own row.
func TestHandleDriversCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run := Config{Check: true, Ctx: ctx}
	bigNFull := rowDriver{"bign full", func(w io.Writer, cfg Config, _ bool) []Row { return bigNRows(w, cfg, false) }, 3, 1}
	for _, d := range append(slices.Clone(rowDrivers), bigNFull) {
		drains, _ := check.Stats()
		var buf bytes.Buffer
		start := time.Now()
		rows := d.fn(&buf, run, true)
		if el := time.Since(start); el > 2*time.Second {
			t.Errorf("%s: took %v on a cancelled context", d.name, el)
		}
		if got, _ := check.Stats(); got != drains {
			t.Errorf("%s: %d simulations drained on a cancelled context", d.name, got-drains)
		}
		if buf.String() != dump(rows) {
			t.Errorf("%s printed\n%s\nbut returned the rows\n%s", d.name, buf.String(), dump(rows))
		}
		m := measured(rows)
		notes := 0
		for _, r := range rows {
			if r.Format == "" && strings.TrimSpace(r.Label) != "" {
				notes++
			}
		}
		if len(m) != d.rows || notes != d.notes {
			t.Errorf("%s: %d measurement rows and %d notes, want %d and %d:\n%s",
				d.name, len(m), notes, d.rows, d.notes, dump(rows))
		}
		bign := strings.HasPrefix(d.name, "bign")
		for _, r := range m {
			if !errors.Is(r.Err, context.Canceled) || bign && !errors.Is(r.Err, xkrt.ErrCanceled) || r.Values != nil {
				t.Errorf("%s: cancelled row %q carries values %v or error %v, want the cancellation alone",
					d.name, r, r.Values, r.Err)
			}
		}
	}
}

// TestFig4CancelledReportsDoDRows: on a cancelled context Fig. 4 prints
// the row of every point it returns exactly once — each data-on-device
// point relabelled "XKBlas DoD", none of them a second time under its
// sweep's own "XKBlas" label — and each of those rows reports the
// cancellation.
func TestFig4CancelledReportsDoDRows(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	pts := Fig4(&buf, Config{Ctx: ctx}, true)
	dod := 0
	for _, p := range pts {
		row := pointRow(p)
		if p.Lib == "XKBlas DoD" {
			dod++
			if !errors.Is(row.Err, context.Canceled) {
				t.Errorf("row %q does not report the cancellation", row)
			}
		}
		if got := strings.Count(buf.String(), row.String()+"\n"); got != 1 {
			t.Errorf("row %q printed %d times, want once", row, got)
		}
	}
	if dod == 0 {
		t.Fatalf("no XKBlas DoD point among %d", len(pts))
	}
}

// TestPerGPUFiguresFollowPlatform locks Fig. 7 and Fig. 9 to the run's
// GPU count: on the 6-GPU Summit node each library gets exactly six
// per-GPU rows and six Gantt lanes.
func TestPerGPUFiguresFollowPlatform(t *testing.T) {
	run := parallelRun()
	run.Platform = topology.SummitNode()

	rows := perGPURows(t, Fig7(io.Discard, run, true))
	if len(rows) != 3 {
		t.Fatalf("fig7: want 3 library sections with GPU rows, got %v", rows)
	}
	for lib, n := range rows {
		if n != 6 {
			t.Errorf("fig7 %s: %d GPU rows, want 6", lib, n)
		}
	}

	fig9 := Fig9(io.Discard, run, true)
	if got := len(rowsWithPrefix(fig9, "GPU")); got != 2*6 {
		t.Errorf("fig9: %d Gantt lanes over 2 libraries, want 12:\n%s", got, dump(fig9))
	}
	if len(rowsWithPrefix(fig9, "GPU6 "))+len(rowsWithPrefix(fig9, "GPU7 ")) != 0 {
		t.Errorf("fig9 draws lanes past the platform's GPUs:\n%s", dump(fig9))
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
	all := SummitPrediction(io.Discard, run, true)
	name := run.Platform.Name
	rows := rowsWithPrefix(all, name)
	if len(rows) != 2 {
		t.Fatalf("want the %q table row and split row, got:\n%s", name, dump(all))
	}
	if rows[1].Label != name+" optimistic-only contribution:" {
		t.Fatalf("split row not labelled with the run's platform: %q", rows[1])
	}
	if r := rows[0]; r.Err != nil || len(r.Values) != 3 || r.Values[0] <= 0 || r.Values[1] <= 0 {
		t.Fatalf("platform row has no measurements: %q", r)
	}
}
