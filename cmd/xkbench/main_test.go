package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xkblas/internal/bench"
	"xkblas/internal/blasops"
	"xkblas/internal/metrics"
)

// closeFailSink writes fine but fails on Close — the shape of a full disk
// whose buffered data is lost at flush time.
type closeFailSink struct {
	bytes.Buffer
	closeErr error
	closed   bool
}

func (s *closeFailSink) Close() error {
	s.closed = true
	return s.closeErr
}

// writeFailSink fails every write and also fails Close, to pin the error
// precedence (the first failure wins).
type writeFailSink struct {
	writeErr error
	closeErr error
}

func (s *writeFailSink) Write(p []byte) (int, error) { return 0, s.writeErr }
func (s *writeFailSink) Close() error                { return s.closeErr }

func samplePoints() []bench.Point {
	return []bench.Point{
		{Lib: "XKBlas", Routine: blasops.Gemm, N: 8192, NB: 2048, GFlops: 100, Runs: 2},
	}
}

func TestWriteCSVToReportsCloseError(t *testing.T) {
	bang := errors.New("close failed: no space left on device")
	sink := &closeFailSink{closeErr: bang}
	if err := writeCSVTo(sink, samplePoints()); !errors.Is(err, bang) {
		t.Fatalf("writeCSVTo error = %v, want the Close error", err)
	}
	if !sink.closed {
		t.Fatal("sink was not closed")
	}
}

func TestWriteCSVToWriteErrorWins(t *testing.T) {
	werr := errors.New("write failed")
	cerr := errors.New("close failed")
	if err := writeCSVTo(&writeFailSink{writeErr: werr, closeErr: cerr}, samplePoints()); !errors.Is(err, werr) {
		t.Fatalf("writeCSVTo error = %v, want the write error", err)
	}
}

func TestWriteCSVToZeroPointsEmitsHeader(t *testing.T) {
	sink := &closeFailSink{}
	if err := writeCSVTo(sink, nil); err != nil {
		t.Fatalf("zero-point CSV failed: %v", err)
	}
	got := sink.String()
	if !strings.HasPrefix(got, "routine,library,n,nb,gflops,ci95,runs,error") {
		t.Fatalf("zero-point CSV missing header: %q", got)
	}
	if n := strings.Count(got, "\n"); n != 1 {
		t.Fatalf("zero-point CSV has %d lines, want 1 (header only)", n)
	}
}

func TestWriteCSVFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := writeCSVFile(path, samplePoints()); err != nil {
		t.Fatalf("writeCSVFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d, want header + 1 point", len(lines))
	}
	if !strings.Contains(lines[1], "XKBlas") {
		t.Fatalf("point row missing: %q", lines[1])
	}

	if err := writeCSVFile(filepath.Join(t.TempDir(), "missing", "out.csv"), nil); err == nil {
		t.Fatal("expected create error for missing directory")
	}
}

// metricsSamplePoints carries a snapshot so the metrics sink emits a row.
func metricsSamplePoints() []bench.Point {
	reg := metrics.NewRegistry()
	reg.Counter("rt.tasks_run").Store(7)
	pts := samplePoints()
	pts[0].Metrics = reg.Snapshot()
	return pts
}

func TestMetricsPathDerivation(t *testing.T) {
	for in, want := range map[string]string{
		"out.csv":          "out.metrics.json",
		"dir/sweep.csv":    "dir/sweep.metrics.json",
		"noext":            "noext.metrics.json",
		"weird.csv.backup": "weird.csv.backup.metrics.json",
	} {
		if got := metricsPath(in); got != want {
			t.Errorf("metricsPath(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteMetricsJSONToReportsCloseError(t *testing.T) {
	bang := errors.New("close failed: no space left on device")
	sink := &closeFailSink{closeErr: bang}
	if err := writeMetricsJSONTo(sink, metricsSamplePoints()); !errors.Is(err, bang) {
		t.Fatalf("error = %v, want the close error", err)
	}
	if !sink.closed {
		t.Fatal("sink was not closed")
	}
	if !strings.Contains(sink.String(), "rt.tasks_run") {
		t.Fatalf("payload written before close lacks metrics: %q", sink.String())
	}
}

func TestWriteMetricsJSONToWriteErrorWins(t *testing.T) {
	werr := errors.New("write failed")
	cerr := errors.New("close failed")
	if err := writeMetricsJSONTo(&writeFailSink{writeErr: werr, closeErr: cerr}, metricsSamplePoints()); !errors.Is(err, werr) {
		t.Fatalf("error = %v, want the write error", err)
	}
}

func TestWriteMetricsJSONFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pts.metrics.json")
	if err := writeMetricsJSONFile(path, metricsSamplePoints()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("sink output is not valid JSON: %v\n%s", err, data)
	}
	if len(parsed) != 1 {
		t.Fatalf("entries = %d, want 1", len(parsed))
	}
	m, ok := parsed[0]["metrics"].(map[string]any)
	if !ok || m["rt.tasks_run"] != float64(7) {
		t.Fatalf("metrics payload = %#v, want rt.tasks_run 7", parsed[0]["metrics"])
	}
}

// TestBatchExperimentDeterministic drives the -exp batch path end to end
// at one pinned sweep point (-batch-count 8 -batch-n 256): the rendered
// table must be byte-identical across the sweep's -parallel fan-out.
func TestBatchExperimentDeterministic(t *testing.T) {
	run := func(parallel int) string {
		t.Helper()
		var buf bytes.Buffer
		bench.BatchSweep(&buf, bench.Config{Parallel: parallel}, true /* quick */, 8, 256)
		return buf.String()
	}
	a, b := run(1), run(8)
	if a != b {
		t.Fatalf("batch sweep differs across -parallel:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{"model crossover", "crossover GF/s", "routed d/h"} {
		if !strings.Contains(a, want) {
			t.Fatalf("batch sweep output lacks %q:\n%s", want, a)
		}
	}
}

// TestFlagProblemRejectsBadConcurrency locks the flag validation behind the
// exit-2 path of main: zero/negative -parallel and -runs, nonpositive
// -sizes/-tiles entries (and a negative -window or -timeout) used to be
// accepted silently — a negative -timeout ran unbounded; now each produces
// a usage diagnostic. -window 0 and -timeout 0 stay valid: they mean
// "whole graph" and "no bound". A whole graph too large to generate
// (-sizes 4096 -tiles 3: 1366³ tasks) is rejected unless -window streams
// it; the default flags' largest graph, 32³, is accepted.
func TestFlagProblemRejectsBadConcurrency(t *testing.T) {
	const sizes, tiles = "8192,16384,32768", "1024,2048,4096"
	for _, tc := range []struct {
		window, parallel, runs, batchCount, batchN int
		sizes, tiles                               string
		timeout                                    time.Duration
		bad                                        string // substring of the expected message; "" = valid
	}{
		{0, 1, 3, 0, 0, sizes, tiles, 0, ""},
		{16, 8, 1, 64, 256, "8192", "512", 0, ""},
		{-1, 1, 3, 0, 0, sizes, tiles, 0, "-window"},
		{0, 0, 3, 0, 0, sizes, tiles, 0, "-parallel"},
		{0, -3, 3, 0, 0, sizes, tiles, 0, "-parallel"},
		{0, 1, 3, -1, 0, sizes, tiles, 0, "-batch-count"},
		{0, 1, 3, 0, -64, sizes, tiles, 0, "-batch-n"},
		{0, 1, 0, 0, 0, sizes, tiles, 0, "-runs"},
		{0, 1, -2, 0, 0, sizes, tiles, 0, "-runs"},
		{0, 1, 3, 0, 0, "-8192", tiles, 0, "-sizes"},
		{0, 1, 3, 0, 0, "8192,0", tiles, 0, "-sizes"},
		{0, 1, 3, 0, 0, sizes, "0", 0, "-tiles"},
		{0, 1, 3, 0, 0, sizes, "1024,-2048", 0, "-tiles"},
		{0, 1, 3, 0, 0, sizes, tiles, 2 * time.Minute, ""},
		{0, 1, 3, 0, 0, sizes, tiles, -time.Second, "-timeout"},
		{0, 1, 3, 0, 0, "4096", "3", 0, "-window"},
		{4096, 1, 3, 0, 0, "4096", "3", 0, ""},
		{0, 1, 3, 0, 0, "1000000000000", "1", 0, "-window"}, // 10^36 tasks: must not overflow
	} {
		msg := flagProblem(tc.window, tc.parallel, tc.runs, tc.batchCount, tc.batchN, tc.sizes, tc.tiles, tc.timeout)
		if tc.bad == "" {
			if msg != "" {
				t.Errorf("flagProblem(%+v) = %q, want valid", tc, msg)
			}
			continue
		}
		if !strings.Contains(msg, tc.bad) {
			t.Errorf("flagProblem(%+v) = %q, want mention of %s", tc, msg, tc.bad)
		}
	}
}

// runCmd runs the command with args and returns its exit status, stdout
// and stderr.
func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestRunRejectsBadFlags: each bad flag exits 2 with its diagnostic on
// stderr, before anything reaches stdout.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-exp", "bogus"}, `unknown experiment "bogus"`},
		{[]string{"-parallel", "0"}, "-parallel must be >= 1"},
		{[]string{"-sizes", "4096", "-tiles", "3"}, "-window"},
		{[]string{"-exp", "sweep", "-libs", "XKBlas, bogus"}, `unknown library " bogus"`},
		{[]string{"-platform", "bogus"}, `unknown platform "bogus"`},
	} {
		code, out, errOut := runCmd(tc.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, tc.msg) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2, no stdout, stderr naming %s",
				tc.args, code, out, errOut, tc.msg)
		}
	}
}

// TestRunTableI: -exp table1 exits 0 and prints the Table I block of the
// committed quick results.
func TestRunTableI(t *testing.T) {
	code, out, errOut := runCmd("-exp", "table1")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	results, err := os.ReadFile("../../results_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, block, _ := strings.Cut(string(results), "==== TABLE1 ====\n")
	block, _, _ = strings.Cut(block, "==== FIG2 ====")
	if !strings.HasPrefix(out, "Table I") || out != block {
		t.Fatalf("-exp table1 printed\n%s\nwant\n%s", out, block)
	}
}

// TestParseLibs: -libs reaches the two Fig. 3 ablations, whose names
// contain ", ", and still splits distinct libraries on commas.
func TestParseLibs(t *testing.T) {
	for spec, want := range map[string][]string{
		"XKBlas,Slate":                        {"XKBlas", "Slate"},
		" XKBlas , Slate ":                    {"XKBlas", "Slate"},
		"XKBlas, no heuristic":                {"XKBlas, no heuristic"},
		"XKBlas,no heuristic":                 {"XKBlas, no heuristic"},
		"XKBlas, no heuristic, no topo,Slate": {"XKBlas, no heuristic, no topo", "Slate"},
		"XKBlas, no heuristic,XKBlas":         {"XKBlas, no heuristic", "XKBlas"},
	} {
		libs, err := parseLibs(spec)
		if err != nil {
			t.Fatalf("parseLibs(%q): %v", spec, err)
		}
		var got []string
		for _, l := range libs {
			got = append(got, l.Name())
		}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("parseLibs(%q) = %q, want %q", spec, got, want)
		}
	}
	for spec, piece := range map[string]string{"XKBlas,bogus": "bogus", "no heuristic": "no heuristic", "XKBlas,": ""} {
		if _, err := parseLibs(spec); err == nil || err.Error() != fmt.Sprintf("unknown library %q", piece) {
			t.Errorf("parseLibs(%q) error = %v, want unknown library %q", spec, err, piece)
		}
	}
}

// TestRunSweepAblation: a custom sweep of a Fig. 3 ablation runs to the
// end.
func TestRunSweepAblation(t *testing.T) {
	code, out, errOut := runCmd("-exp", "sweep", "-libs", "XKBlas, no heuristic", "-sizes", "4096", "-tiles", "1024", "-runs", "1", "-parallel", "1")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "GEMM     XKBlas, no heuristic         N=4096") {
		t.Fatalf("no ablation row in\n%s", out)
	}
}

// TestRunUnusableSinkFailsFirst: a -csv path, or under -metrics its
// metrics path, that cannot be created exits 2 before the first
// simulation, so nothing reaches stdout; an invalid -exp creates no file.
func TestRunUnusableSinkFailsFirst(t *testing.T) {
	dir := t.TempDir()
	code, out, errOut := runCmd("-exp", "fig3", "-quick", "-csv", filepath.Join(dir, "missing", "x.csv"))
	if code != 2 || out != "" || !strings.HasPrefix(errOut, "csv: open ") {
		t.Fatalf("missing directory: exit %d, stdout %q, stderr %q; want exit 2, no stdout, a csv error", code, out, errOut)
	}
	csv := filepath.Join(dir, "x.csv")
	if err := os.Mkdir(metricsPath(csv), 0o755); err != nil {
		t.Fatal(err)
	}
	code, out, errOut = runCmd("-exp", "fig3", "-quick", "-metrics", "-csv", csv)
	if code != 2 || out != "" || !strings.HasPrefix(errOut, "metrics json: open ") {
		t.Fatalf("directory as metrics path: exit %d, stdout %q, stderr %q; want exit 2, no stdout, a metrics json error", code, out, errOut)
	}
	bad := filepath.Join(dir, "bad.csv")
	if code, _, _ := runCmd("-exp", "bogus", "-csv", bad); code != 2 {
		t.Fatalf("-exp bogus: exit %d, want 2", code)
	}
	if _, err := os.Stat(bad); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("-exp bogus created %s (stat: %v)", bad, err)
	}
}
