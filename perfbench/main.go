// Command perfbench is the repository's benchmark. One invocation runs one
// workload from a seed for a wall-clock budget, as one closed-loop client
// with one simulation worker, checks the program's outputs, and prints
// every metric by name with its unit; the last line is a JSON summary.
//
//	perfbench -workload paper-sweep -seed 1 -seconds 20 -trace 0
//
// -trace 0 prints the end-to-end metrics, -trace 1 the per-layer ones from
// a traced pass. README.md explains the workloads and the metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"xkblas/internal/check"
	"xkblas/internal/hostblas"
)

// setups is how many times a run builds its inputs; setup_s is the median.
const setups = 5

// minIters is the fewest measured iterations of an untraced run.
const minIters = 3

// runner measures one workload whose inputs are built.
type runner interface {
	// iterate runs one measured iteration: the same fixed work every time.
	// tr is nil outside the traced pass.
	iterate(tr *tracer) outcome
	// audit reruns the workload's simulations, reduced, under the
	// coherence auditor; it is neither timed nor traced.
	audit() error
}

// workload builds a runner from a seed. Set-up is timed, and traced in the
// traced pass.
type workload struct {
	name  string
	setup func(seed int64, tr *tracer) (runner, error)
}

var workloads = []workload{
	{"paper-sweep", setupSweep},
	{"bign-stream", setupBigN},
	{"functional-check", setupFunctional},
	{"serve-replay", setupServe},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// model holds an iteration's simulated results. They are pure functions of
// the seed, so every iteration of a run must produce the same model.
type model struct {
	TFlops     float64 // modelled TFlop/s
	ServedFrac float64 // operations served over attempted
	P50, P99   float64 // modelled latency of one operation, virtual seconds
	P50N, P99N int     // samples behind each percentile
	LatNote    string  // what the samples are
	GapPP      float64 // paper-sweep: mean |Table II gap| to the paper, pp
}

// outcome is what one iteration reports.
type outcome struct {
	attempted, failed int
	work              float64 // throughput numerator (README.md lists the unit)
	model             model
	// layer holds the simulated per-layer counters; filled in the traced
	// pass only.
	layer    map[string]float64
	problems []string // failed output checks
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	out      string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 20, "wall-clock budget of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for the traced pass's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := lookup(o.workload); !ok || o.seconds <= 0 || (trace != 0 && trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	o.traced = trace == 1
	// One worker: the simulation is sequential, and one P keeps the
	// process's CPU time at or below its wall time, so 1 - cpu/wall reads
	// as the share of wall time the process was kept off the CPU.
	runtime.GOMAXPROCS(1)
	hostblas.SetParallelism(1)
	if err := measure(o, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// errIncorrect reports a run whose output checks failed; the summary has
// already been printed with "correct": false.
var errIncorrect = errors.New("output checks failed")

// measure runs one workload and prints its metrics.
func measure(o options, stdout io.Writer) error {
	w, _ := lookup(o.workload)
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	if err := initCalibration(); err != nil {
		return err
	}

	var r runner
	var setupCPU []float64
	setupCal := []float64{calibrate()}
	for i := range setups {
		tr.setRun(fmt.Sprintf("setup-%d", i))
		c0 := cpuSeconds()
		rr, err := w.setup(o.seed, tr)
		setupCPU = append(setupCPU, cpuSeconds()-c0)
		setupCal = append(setupCal, calibrate())
		if err != nil {
			return fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		r = rr
	}

	l := loop{r: r}
	start := time.Now()
	if !o.traced {
		l.measure(nil, start, o.seconds, minIters)
	} else {
		// A third of the budget untraced, for the overhead baseline and
		// the host diagnostics, the rest traced.
		l.measure(nil, start, o.seconds/3, 1)
		l.measure(tr, start, o.seconds, 1)
	}
	// Read before the audit, whose auditor state is not the workload's.
	rss := peakRSSMB() - calBytes/(1<<20)

	if err := r.audit(); err != nil {
		l.problems = append(l.problems, "audit: "+err.Error())
	}
	drains, violations := check.Stats()
	fmt.Fprintf(stdout, "coherence audit: %d clean drains, %d violations\n", drains, violations)
	if violations > 0 {
		l.problems = append(l.problems, fmt.Sprintf("audit: %d coherence violations", violations))
	}

	m := l.first.model
	notes := map[string]string{
		"p50_latency_s": fmt.Sprintf("n=%d, %s", m.P50N, m.LatNote),
		"p99_latency_s": fmt.Sprintf("n=%d, %s", m.P99N, m.LatNote),
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d untraced and %d traced iterations, %d operations attempted, %d failed\n",
		o.workload, o.seed, len(l.cpu), len(l.tracedCPU), l.attempted, l.failed)
	fmt.Fprintf(stdout, "raw CPU seconds: set-up median %.6g, iteration median %.6g\n", median(setupCPU), median(l.cpu))
	fmt.Fprintf(stdout, "iteration cpu_s: %.4g\niteration wall_s: %.4g\nchase cpu_s: %.4g\nset-up cpu_s: %.4g\nset-up chase cpu_s: %.4g\n",
		l.cpu, l.wall, l.cal, setupCPU, setupCal)
	var values map[string]float64
	var defs []metricDef
	if !o.traced {
		defs = endToEnd
		cpu := median(normalize(l.cpu, l.cal))
		values = map[string]float64{
			"setup_s":       median(normalize(setupCPU, setupCal)),
			"cpu_s":         cpu,
			"throughput":    ratio(l.first.work, cpu),
			"peak_rss_mb":   rss,
			"model_tflops":  m.TFlops,
			"served_frac":   m.ServedFrac,
			"p50_latency_s": m.P50,
			"p99_latency_s": m.P99,
		}
	} else {
		defs = perLayer
		values = l.perLayer(tr, setupCPU)
		fmt.Fprintf(stdout, "model: %.6g TFlop/s, served %.6g, p50 %.6g s, p99 %.6g s (%s), paper gap %.6g pp\n",
			m.TFlops, m.ServedFrac, m.P50, m.P99, notes["p99_latency_s"], m.GapPP)
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return err
		}
		if err := tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
	}
	for _, p := range l.problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}
	s := summary{Correct: len(l.problems) == 0, Attempted: l.attempted, Failed: l.failed}
	if err := emit(stdout, defs, values, notes, s); err != nil {
		return err
	}
	if !s.Correct {
		return errIncorrect
	}
	return nil
}

// loop runs measured iterations and keeps what they report.
type loop struct {
	r                 runner
	first             outcome // the first iteration; every later one must match it
	n                 int
	attempted, failed int
	problems          []string

	cpu, wall []float64 // untraced iterations
	cal       []float64 // calibration chases around the untraced iterations

	tracedCPU   []float64 // traced iterations, replica work excluded
	layer       map[string]float64
	mallocs     float64
	allocBytes  float64
	gcCycles    float64
	tracedIters int
}

// maxProblems caps how many failed checks a run lists.
const maxProblems = 20

func (l *loop) problem(p string) {
	if len(l.problems) < maxProblems {
		l.problems = append(l.problems, p)
	}
}

// measure iterates until the next iteration would end past budget seconds
// after start, and at least least times.
func (l *loop) measure(tr *tracer, start time.Time, budget float64, least int) {
	var walls []float64
	// Chasing around every iteration, traced or not, leaves each one the
	// same cache state to start from.
	chase := func() {
		if c := calibrate(); tr == nil {
			l.cal = append(l.cal, c)
		}
	}
	chase()
	for i := 0; ; i++ {
		if i >= least && time.Since(start).Seconds()+median(walls) > budget {
			return
		}
		nspans := 0
		var ms0 runtime.MemStats
		if tr != nil {
			tr.setRun(fmt.Sprintf("iter-%d", l.tracedIters))
			nspans = len(tr.spans)
			runtime.ReadMemStats(&ms0)
		}
		w0, c0 := time.Now(), cpuSeconds()
		out := l.r.iterate(tr)
		cpu, wall := cpuSeconds()-c0, time.Since(w0).Seconds()
		chase()
		walls = append(walls, wall)
		l.record(out)
		if tr == nil {
			l.cpu = append(l.cpu, cpu)
			l.wall = append(l.wall, wall)
			continue
		}
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		l.mallocs += float64(ms1.Mallocs - ms0.Mallocs)
		l.allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		l.gcCycles += float64(ms1.NumGC - ms0.NumGC)
		replica := 0.0
		for _, s := range tr.spans[nspans:] {
			if s.Name == replicaSpan {
				replica += s.CPU1 - s.CPU0
			}
		}
		l.tracedCPU = append(l.tracedCPU, cpu-replica)
		if l.layer == nil {
			l.layer = out.layer
		} else if !maps.Equal(l.layer, out.layer) {
			l.problem("simulated per-layer counters differ between iterations of one seed")
		}
		l.tracedIters++
	}
}

func (l *loop) record(out outcome) {
	if l.n == 0 {
		l.first = out
	} else if out.model != l.first.model {
		l.problem(fmt.Sprintf("simulated results differ between iterations of one seed: %+v vs %+v", out.model, l.first.model))
	}
	l.n++
	l.attempted += out.attempted
	l.failed += out.failed
	for _, p := range out.problems {
		l.problem(p)
	}
}

// perLayer assembles the traced pass's per-layer metrics.
func (l *loop) perLayer(tr *tracer, setupCPU []float64) map[string]float64 {
	v := make(map[string]float64)
	maps.Copy(v, l.layer)
	n := float64(max(l.tracedIters, 1))
	for name, secs := range tr.layerSeconds(len(setupCPU), l.tracedIters) {
		if m, ok := spanMetric[name]; ok {
			v[m] += secs
		} else if lib, ok := strings.CutPrefix(name, "baseline.Run/"); ok {
			v["baseline."+lib+".cpu_s"] += secs
		}
	}
	var leafMS []float64
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "baseline.Run/") && strings.HasPrefix(s.Run, "iter-") {
			leafMS = append(leafMS, 1000*(s.CPU1-s.CPU0))
		}
	}
	v["baseline.leaf_ms_p50"] = quantile(leafMS, 0.5)
	v["baseline.leaf_ms_p90"] = quantile(leafMS, 0.9)
	host := v["core.submit_s"] + v["core.sync_s"]
	v["xkrt.ns_per_task"] = 1e9 * ratio(host, v["xkrt.tasks_run"])
	v["sim.ns_per_event"] = 1e9 * ratio(host, v["sim.events"])
	v["hostblas.gflops"] = ratio(v["hostblas.ref_gflop"], v["hostblas.ref_s"])
	v["bench.paper_gap_pp"] = l.first.model.GapPP
	v["go.mallocs"] = l.mallocs / n
	v["go.alloc_mb"] = l.allocBytes / n / (1 << 20)
	v["go.gc_cycles"] = l.gcCycles / n
	v["trace.overhead_frac"] = ratio(median(l.tracedCPU), median(l.cpu)) - 1
	v["host.setup_s"] = median(setupCPU)
	v["host.cpu_s"] = median(l.cpu)
	v["host.wall_s"] = median(l.wall)
	v["host.steal_frac"] = 1 - ratio(sum(l.cpu), sum(l.wall))
	return v
}
