package bench

import (
	"bytes"
	"strings"
	"testing"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
)

// metricsConfig is a small sweep with metrics and noise on.
func metricsConfig() Config {
	return Config{
		Libs:     []baseline.Library{baseline.XKBlas(), baseline.CuBLASXT()},
		Routines: []blasops.Routine{blasops.Gemm},
		Sizes:    []int{4096, 8192},
		Tiles:    []int{1024, 2048},
		Runs:     2,
		NoiseAmp: 0.02,
		Metrics:  true,
	}
}

// metricsJSON runs the config and renders the metrics sink to bytes.
func metricsJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	points := RunSweep(cfg)
	for _, p := range points {
		if p.Err != nil {
			t.Fatalf("point %v failed: %v", p, p.Err)
		}
		if p.Metrics == nil {
			t.Fatalf("point %v has no metrics snapshot despite Config.Metrics", p)
		}
	}
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, points); err != nil {
		t.Fatalf("WriteMetricsJSON: %v", err)
	}
	return buf.Bytes()
}

// TestMetricsJSONDeterministic is the acceptance check of the metrics
// layer: two consecutive runs and every parallelism level produce
// byte-identical metrics JSON, noise jitter included.
func TestMetricsJSONDeterministic(t *testing.T) {
	first := metricsJSON(t, metricsConfig())
	if again := metricsJSON(t, metricsConfig()); !bytes.Equal(first, again) {
		t.Fatal("consecutive identical runs produced different metrics JSON")
	}
	for _, workers := range []int{2, 8} {
		cfg := metricsConfig()
		cfg.Parallel = workers
		if par := metricsJSON(t, cfg); !bytes.Equal(first, par) {
			t.Fatalf("parallel=%d metrics JSON differs from sequential", workers)
		}
	}
	if !bytes.HasPrefix(first, []byte("[")) || !bytes.HasSuffix(first, []byte("]\n")) {
		t.Fatalf("metrics JSON is not an array: %.60s...", first)
	}
}

// TestMetricsSnapshotContent sanity-checks one run's snapshot: the Table-3
// rollups exist, delivered kernel work is positive, and the policy decision
// counters ride the same registry as the resource metrics.
func TestMetricsSnapshotContent(t *testing.T) {
	cfg := metricsConfig()
	cfg.Sizes = []int{4096}
	cfg.Libs = []baseline.Library{baseline.XKBlas()}
	points := RunSweep(cfg)
	if len(points) != 1 || points[0].Err != nil {
		t.Fatalf("unexpected points: %+v", points)
	}
	snap := points[0].Metrics
	for _, name := range []string{
		"class.kernel.busy_seconds",
		"class.kernel.flops",
		"class.h2d.bytes",
		"class.nvlink.bytes",
		"class.pcie.bytes",
		"class.qpi.bytes",
		"cache.hits",
		"cache.misses",
		"cache.h2d.bytes",
		"policy.src.host",
		"rt.tasks_run",
		"rt.stall_time_seconds",
		"res.gpu0.kernel.busy_seconds",
	} {
		if _, ok := snap.Get(name); !ok {
			t.Errorf("snapshot is missing %q", name)
		}
	}
	if s, _ := snap.Get("class.kernel.busy_seconds"); s.Float <= 0 {
		t.Errorf("kernel busy_seconds = %g, want > 0", s.Float)
	}
	if s, _ := snap.Get("rt.tasks_run"); s.Int <= 0 {
		t.Errorf("rt.tasks_run = %d, want > 0", s.Int)
	}
	// The run moved data host-to-device, so the H2D class and the cache's
	// own counter must agree that bytes flowed.
	if s, _ := snap.Get("cache.h2d.bytes"); s.Int <= 0 {
		t.Errorf("cache.h2d.bytes = %d, want > 0", s.Int)
	}
}

// TestMetricsDisabledLeavesPointsBare pins the zero-cost-off contract: with
// Config.Metrics false no snapshot is attached anywhere.
func TestMetricsDisabledLeavesPointsBare(t *testing.T) {
	cfg := metricsConfig()
	cfg.Metrics = false
	for _, p := range RunSweep(cfg) {
		if p.Metrics != nil {
			t.Fatalf("point %v carries a metrics snapshot with metrics disabled", p)
		}
	}
}

// TestMetricsTableRollups checks the human table renders one row per point
// with the Table-3 columns populated.
func TestMetricsTableRollups(t *testing.T) {
	cfg := metricsConfig()
	cfg.Sizes = []int{4096}
	points := RunSweep(cfg)
	var buf bytes.Buffer
	if err := WriteMetricsTable(&buf, points); err != nil {
		t.Fatalf("WriteMetricsTable: %v", err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+len(points) {
		t.Fatalf("table has %d lines, want header + %d rows:\n%s", len(lines), len(points), out)
	}
	for _, col := range []string{"kern_busy", "h2d_bytes", "nvl_bytes", "hits"} {
		if !strings.Contains(lines[0], col) {
			t.Fatalf("header %q is missing column %q", lines[0], col)
		}
	}
	if strings.Contains(out, " - ") {
		t.Fatalf("table has unpopulated cells:\n%s", out)
	}
}
