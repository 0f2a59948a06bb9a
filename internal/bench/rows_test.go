package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// rowDriver is an experiment that returns its report rows, with the shape
// of its quick report on a cancelled context: rows measurement rows, each
// reporting the cancellation, and notes non-blank rows without a format
// (titles, headings and the paper's reference notes, but no summary
// derived from a measurement).
type rowDriver struct {
	name        string
	fn          func(io.Writer, Config, bool) []Row
	rows, notes int
}

// rowDrivers lists every experiment that returns its report rows.
var rowDrivers = []rowDriver{
	{"table2", TableII, 3, 3},
	{"fig6", Fig6, 6, 3},
	{"fig7", Fig7, 3, 1},
	{"fig8", Fig8, 6, 2},
	{"fig9", Fig9, 2, 1},
	{"scale", Scalability, 8, 2},
	{"summit", SummitPrediction, 4, 2},
	{"hermitian", Hermitian, 8, 1},
	{"pinning", PinningCost, 2, 2},
	{"factor", Factorizations, 4, 2},
	{"batch", func(w io.Writer, cfg Config, quick bool) []Row { return BatchSweep(w, cfg, quick, 0, 0) }, 12, 9},
	{"bign", bigNRows, 2, 1},
}

// bigNRows runs the big-N experiment for its report rows.
func bigNRows(w io.Writer, cfg Config, quick bool) []Row {
	_, rows := bigN(w, cfg, quick)
	return rows
}

// quickRows runs every row driver once at quick scale, uncancelled, and
// keeps its rows by name: the reference of the claim tests and of
// TestRowDriversDeadline.
var quickRows = sync.OnceValue(func() map[string][]Row {
	out := make(map[string][]Row, len(rowDrivers))
	for _, d := range rowDrivers {
		out[d.name] = d.fn(io.Discard, parallelRun(), true)
	}
	return out
})

// measured returns the rows that carry a format: the measurements, as
// opposed to titles, headings, notes and chart lines.
func measured(rows []Row) []Row {
	var out []Row
	for _, r := range rows {
		if r.Format != "" {
			out = append(out, r)
		}
	}
	return out
}

func TestRowString(t *testing.T) {
	for _, tc := range []struct {
		row  Row
		want string
	}{
		{Row{Label: "Fig. 1 — title"}, "Fig. 1 — title"},
		{Row{Label: "GEMM  ", Format: " %6.1f ±%4.1f (nb=%.0f)", Values: []float64{12.34, 0.5, 2048}}, "GEMM     12.3 ± 0.5 (nb=2048)"},
		{Row{Label: "GEMM  ", Format: " %6.1f", Values: []float64{1}, Err: errors.New("boom")}, "GEMM   ERROR: boom"},
	} {
		if got := tc.row.String(); got != tc.want {
			t.Errorf("%+v renders %q, want %q", tc.row, got, tc.want)
		}
	}
}

// TestRowDriversDeadline runs every row driver at quick scale under a
// deadline of a few milliseconds, against the uncancelled rows of
// quickRows: every row that reports no error is one the uncancelled run
// produced, identically, so no row shows a number the run did not measure.
// (TestHandleDriversCancelled runs the same drivers on a cancelled
// context.)
func TestRowDriversDeadline(t *testing.T) {
	ref := quickRows()
	for _, d := range rowDrivers {
		ctx, stop := context.WithTimeout(context.Background(), 3*time.Millisecond)
		cut := parallelRun()
		cut.Ctx = ctx
		rows := d.fn(io.Discard, cut, true)
		stop()
		for _, r := range rows {
			same := func(want Row) bool { return reflect.DeepEqual(r, want) }
			if r.Err == nil && !slices.ContainsFunc(ref[d.name], same) {
				t.Errorf("%s: row %q under a deadline is not among the uncancelled rows", d.name, r)
			}
		}
	}
	for name, rows := range ref {
		for _, r := range rows {
			if r.Err != nil {
				t.Errorf("%s: uncancelled row failed: %v", name, r)
			}
		}
	}
}

// rowsWithPrefix returns the rows whose label starts with prefix.
func rowsWithPrefix(rows []Row, prefix string) []Row {
	var out []Row
	for _, r := range rows {
		if strings.HasPrefix(r.Label, prefix) {
			out = append(out, r)
		}
	}
	return out
}

// dump renders rows for a failure message.
func dump(rows []Row) string {
	var s string
	for _, r := range rows {
		s += fmt.Sprintln(r)
	}
	return s
}
