package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// TestServeMetricsEndpoints boots the -serve listener on an ephemeral port
// and checks both the Prometheus exposition and the pprof index respond.
func TestServeMetricsEndpoints(t *testing.T) {
	metrics.Default().Counter("rt.tasks_run").Store(3)
	srv, err := serveMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s read: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "xkblas_rt_tasks_run 3") {
		t.Fatalf("/metrics exposition lacks the counter:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index looks wrong:\n%.200s", body)
	}
}

// TestServeMetricsShutdownReleasesListener is the regression test for the
// -serve listener leak: the old serveMetrics handed back only the bound
// address, so a SIGINT/-timeout shutdown had nothing to close and the port
// stayed held (and served) until process exit. Now the run context's
// cancellation closes the endpoint: the port must be rebindable and Close
// must report a clean serve loop.
func TestServeMetricsShutdownReleasesListener(t *testing.T) {
	srv, err := serveMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if _, err := http.Get("http://" + addr + "/metrics"); err != nil {
		t.Fatalf("endpoint not live before shutdown: %v", err)
	}

	// The same wiring main uses: ctx cancellation (SIGINT, -timeout)
	// closes the listener while the rest of the shutdown path runs.
	ctx, cancel := context.WithCancel(context.Background())
	stop := context.AfterFunc(ctx, func() { srv.Close() })
	defer stop()
	cancel()
	if err := srv.Close(); err != nil { // idempotent; also awaits the serve goroutine
		t.Fatalf("Close after ctx shutdown: %v", err)
	}

	// The port is actually released: binding it again must succeed.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port still held after shutdown: %v", err)
	}
	ln.Close()
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("endpoint still serving after shutdown")
	}
}

// TestServeMetricsBindErrorPropagates pins that a bind failure surfaces as
// a synchronous error (main turns it into exit status 2) rather than a
// background stderr line.
func TestServeMetricsBindErrorPropagates(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := serveMetrics(ln.Addr().String()); err == nil {
		t.Fatal("binding a taken port must fail serveMetrics")
	}
}

// TestServeExperimentDeterministic drives the -exp serve path end to end
// at -quick scale: config assembly from flag values, the replay, the text
// report and the JSON sink — twice, byte-identically.
func TestServeExperimentDeterministic(t *testing.T) {
	run := func(parallel int) (string, []byte) {
		t.Helper()
		cfg, err := serveConfig("dgx1,dgx2", "bursty", "reject",
			120, 1200, 8, parallel, 300, 1, true /* quick */, false, context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Requests != 300 {
			t.Fatalf("-quick kept %d requests, want 300", cfg.Requests)
		}
		path := filepath.Join(t.TempDir(), "serve.json")
		var text bytes.Buffer
		rep, err := serveRun(&text, cfg, path)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Served == 0 {
			t.Fatal("quick serve experiment served nothing")
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var decoded any
		if err := json.Unmarshal(blob, &decoded); err != nil {
			t.Fatalf("serve-json sink is not valid JSON: %v", err)
		}
		// Drop the sink confirmation line: it names the per-run temp dir.
		report := text.String()
		if i := strings.Index(report, "wrote "); i >= 0 {
			report = report[:i]
		}
		return report, blob
	}
	text1, json1 := run(1)
	text8, json8 := run(8)
	if text1 != text8 {
		t.Fatalf("serve reports differ across -parallel:\n%s\nvs\n%s", text1, text8)
	}
	if !bytes.Equal(json1, json8) {
		t.Fatal("serve JSON sinks differ across -parallel")
	}
}

// TestBatchExperimentDeterministic drives the -exp batch path end to end
// at one pinned sweep point (-batch-count 8 -batch-n 256): the rendered
// table must be byte-identical across the sweep's -parallel fan-out.
func TestBatchExperimentDeterministic(t *testing.T) {
	run := func(parallel int) string {
		t.Helper()
		old := bench.DefaultParallelism
		bench.DefaultParallelism = parallel
		defer func() { bench.DefaultParallelism = old }()
		var buf bytes.Buffer
		bench.BatchSweep(&buf, true /* quick */, 8, 256)
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

// TestServeConfigRejectsBadFlags pins flag validation to exit-code-2
// errors rather than mid-run surprises.
func TestServeConfigRejectsBadFlags(t *testing.T) {
	ctx := context.Background()
	if _, err := serveConfig("nonesuch", "bursty", "reject", 120, 1200, 8, 1, 300, 1, false, false, ctx); err == nil {
		t.Fatal("unknown fleet platform must fail")
	}
	if _, err := serveConfig("dgx1", "fractal", "reject", 120, 1200, 8, 1, 300, 1, false, false, ctx); err == nil {
		t.Fatal("unknown arrival pattern must fail")
	}
	if _, err := serveConfig("dgx1", "bursty", "drop", 120, 1200, 8, 1, 300, 1, false, false, ctx); err == nil {
		t.Fatal("unknown backpressure policy must fail")
	}
}

// TestFlagProblemRejectsBadConcurrency locks the flag validation behind the
// exit-2 path of main: zero/negative -parallel and -runs, nonpositive
// -sizes/-tiles entries (and a negative -window) used to be accepted
// silently; now each produces a usage diagnostic. -window 0 stays valid —
// it means "whole graph".
func TestFlagProblemRejectsBadConcurrency(t *testing.T) {
	const sizes, tiles = "8192,16384,32768", "1024,2048,4096"
	for _, tc := range []struct {
		window, parallel, runs, batchCount, batchN int
		sizes, tiles                               string
		bad                                        string // substring of the expected message; "" = valid
	}{
		{0, 1, 3, 0, 0, sizes, tiles, ""},
		{16, 8, 1, 64, 256, "8192", "512", ""},
		{-1, 1, 3, 0, 0, sizes, tiles, "-window"},
		{0, 0, 3, 0, 0, sizes, tiles, "-parallel"},
		{0, -3, 3, 0, 0, sizes, tiles, "-parallel"},
		{0, 1, 3, -1, 0, sizes, tiles, "-batch-count"},
		{0, 1, 3, 0, -64, sizes, tiles, "-batch-n"},
		{0, 1, 0, 0, 0, sizes, tiles, "-runs"},
		{0, 1, -2, 0, 0, sizes, tiles, "-runs"},
		{0, 1, 3, 0, 0, "-8192", tiles, "-sizes"},
		{0, 1, 3, 0, 0, "8192,0", tiles, "-sizes"},
		{0, 1, 3, 0, 0, sizes, "0", "-tiles"},
		{0, 1, 3, 0, 0, sizes, "1024,-2048", "-tiles"},
	} {
		msg := flagProblem(tc.window, tc.parallel, tc.runs, tc.batchCount, tc.batchN, tc.sizes, tc.tiles)
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
