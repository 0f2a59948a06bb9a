package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"xkblas/internal/baseline"
	"xkblas/internal/bench"
	"xkblas/internal/blasops"
	"xkblas/internal/core"
	"xkblas/internal/topology"
)

func TestMetricCatalogue(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]{1,64}$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for span, m := range spanMetric {
		if !seen[m] {
			t.Errorf("span %q feeds %q, which is not in the catalogue", span, m)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the catalogue:\n%v\n%v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the catalogue")
	}
}

// The Table II of results_quick.txt: +23.6/-22.0/-23.4, +14.1/-3.6/-24.8,
// +39.8/-3.7/-24.1.
func TestPaperGapOfQuickResults(t *testing.T) {
	cells := [3][3]float64{{23.6, -22.0, -23.4}, {14.1, -3.6, -24.8}, {39.8, -3.7, -24.1}}
	if got := math.Round(paperGap(cells)*10) / 10; got != 30.5 {
		t.Fatalf("paper gap = %v pp, want 30.5", got)
	}
}

func TestUnsupportedRoutineCountsOneFailure(t *testing.T) {
	s := &sweepRun{plat: topology.DGX1(), routines: []blasops.Routine{blasops.Syr2k}}
	s.add("blasx", baseline.BLASX(), false) // GEMM only
	var out outcome
	s.measure(nil, &out, []int{4096})
	if out.attempted != 1 || out.failed != 1 || len(out.problems) != 1 {
		t.Fatalf("attempted %d, failed %d, problems %q; want one failed operation", out.attempted, out.failed, out.problems)
	}
}

// TestReplayMatchesLibraryRun checks that the traced pass's core-driven
// replay reproduces Library.Run's simulated time for every library and
// scenario of the sweep.
func TestReplayMatchesLibraryRun(t *testing.T) {
	s := newSweep(1, topology.DGX1(), nil)
	for _, l := range s.libs {
		for _, r := range sweepRoutines {
			req := baseline.Request{Routine: r, N: 4096, NB: 1024, Platform: s.plat,
				NoiseAmp: sweepNoiseAmp, NoiseSeed: 99}
			if l.dod {
				req.Scenario = baseline.DataOnDevice
			}
			want := l.Library.Run(req)
			got, err := replay(nil, &simCounts{}, l.Library.(*baseline.StdLib).Opts, req)
			if err != nil || want.Err != nil || got != want.Elapsed {
				t.Errorf("%s %v: replay %v (%v), Library.Run %v (%v)", l.key, r, got, err, want.Elapsed, want.Err)
			}
		}
	}
}

// TestBigNMatchesRunBigNGemm checks that the core-driven streamed GEMM is
// bench.RunBigNGemm's run when kernel noise is off.
func TestBigNMatchesRunBigNGemm(t *testing.T) {
	const n = 65536
	b := &bigNRun{h: core.NewHandle(core.Config{TileSize: bigNTile, Options: bigNOptions()}), n: n}
	got, err := b.gemm(b.h, nil)
	want := bench.RunBigNGemm(bench.BigNConfig{N: n, NB: bigNTile, Window: bigNWindow})
	if err != nil || want.Err != nil || got != float64(want.Elapsed) {
		t.Fatalf("core GEMM %v (%v), RunBigNGemm %v (%v)", got, err, want.Elapsed, want.Err)
	}
}

// TestSeedRepeatsAndChanges runs each workload, reduced where it is
// large, twice on one seed and once on another.
func TestSeedRepeatsAndChanges(t *testing.T) {
	build := map[string]func(seed int64) (runner, error){
		"paper-sweep": func(seed int64) (runner, error) {
			return newSweep(seed, topology.DGX1(), []int{4096}), nil
		},
		"bign-stream": func(seed int64) (runner, error) { return newBigN(seed, 65536, nil) },
		"functional-check": func(seed int64) (runner, error) {
			return setupFunctional(seed, nil)
		},
		"serve-replay": func(seed int64) (runner, error) {
			r, err := setupServe(seed, nil)
			if err == nil {
				r.(*serveRun).cfg.Requests = 3000
			}
			return r, err
		},
	}
	for name, f := range build {
		t.Run(name, func(t *testing.T) {
			run := func(seed int64) model {
				r, err := f(seed)
				if err != nil {
					t.Fatal(err)
				}
				out := r.iterate(nil)
				if out.failed > 0 || out.model.TFlops <= 0 {
					t.Fatalf("seed %d: %d failed (%q), %v TFlop/s", seed, out.failed, out.problems, out.model.TFlops)
				}
				return out.model
			}
			a, b, c := run(1), run(1), run(2)
			if a != b {
				t.Errorf("seed 1 twice: %+v vs %+v", a, b)
			}
			if a.TFlops == c.TFlops {
				t.Errorf("seeds 1 and 2 both model %v TFlop/s", a.TFlops)
			}
		})
	}
}

// flaky returns a different model on every iteration.
type flaky struct{ n int }

func (f *flaky) iterate(*tracer) outcome {
	f.n++
	return outcome{attempted: 1, model: model{TFlops: float64(f.n)}}
}
func (f *flaky) audit() error { return nil }

func TestDifferingIterationsFailTheRun(t *testing.T) {
	if err := initCalibration(); err != nil {
		t.Fatal(err)
	}
	l := loop{r: &flaky{}}
	l.measure(nil, time.Now(), 0, 2)
	if len(l.problems) == 0 {
		t.Fatal("two iterations of one seed modelled different results and no check failed")
	}
}

// summaryOf runs the command and returns its exit code and parsed summary.
func summaryOf(t *testing.T, args ...string) (int, summary, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var s summary
	if code == 0 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
			t.Fatalf("last line is not the summary: %v\n%s", err, stdout.String())
		}
	}
	return code, s, stdout.String() + stderr.String()
}

func TestCommandPrintsEveryMetric(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		code, s, out := summaryOf(t, "-workload", "serve-replay", "-seed", "3", "-seconds", "0.01", "-trace", c.trace, "-out", dir)
		if code != 0 || !s.Correct || s.Attempted < 1 || s.Failed != 0 {
			t.Fatalf("trace %s: exit %d, summary %+v\n%s", c.trace, code, s, out)
		}
		if len(s.Metrics) != len(c.defs) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(s.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			v, ok := s.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", c.trace, d.Name, v, d.Unit)
			}
			if c.trace == "0" && v.Value == 0 {
				t.Errorf("end-to-end metric %s reads 0", d.Name)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "spans-serve-replay-seed3.json")); err != nil {
		t.Errorf("traced pass wrote no spans: %v", err)
	}
}

func TestCommandRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "serve-replay", "-trace", "2"},
		{"-workload", "serve-replay", "-seconds", "0"},
	} {
		if code, _, _ := summaryOf(t, args...); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
	}
}
