// Command xkbench regenerates the paper's tables and figures on the
// simulated DGX-1.
//
// Usage:
//
//	xkbench -exp fig5              # full Fig. 5 sweep (paper sizes, 8 runs)
//	xkbench -exp fig3 -quick       # reduced sweep for a fast look
//	xkbench -exp table2
//	xkbench -exp fig5 -csv out.csv # also dump the points as CSV
//	xkbench -exp all               # everything, in paper order
//
//	# Custom sweeps:
//	xkbench -exp sweep -libs XKBlas,Slate -routines GEMM,TRSM -sizes 16384,32768
//	xkbench -exp sweep -routines SYR2K -dod
//
//	# Parallelism: independent simulated runs fan out across host cores
//	# (default: all of them); any level returns bit-identical results.
//	xkbench -exp fig5 -parallel 1
//
//	# Bound the run: after 2 minutes (or on Ctrl-C) stop scheduling new
//	# simulations, abort in-flight ones, flush the completed points to
//	# every requested sink, and exit nonzero.
//	xkbench -exp fig5 -timeout 2m -csv partial.csv
//
//	# Batched small-BLAS dispatch: uniform batches swept over batch count
//	# and instance size, device-only vs host-only vs the model-derived
//	# crossover routing, on two fabric designs. Not part of -exp all.
//	xkbench -exp batch -quick
//	xkbench -exp batch -batch-count 64 -batch-n 256
//
//	# Profile the simulator's own host time and allocations.
//	xkbench -exp fig3 -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof -top cpu.pprof
//
// Paper experiments: table1, fig2, fig3, table2, fig4, fig5, fig6, fig7,
// fig8, fig9. Extensions: scale, summit, hermitian, pinning, factor, bign,
// batch. The multi-tenant serving front end has its own command, xkserve.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"xkblas/internal/baseline"
	"xkblas/internal/bench"
	"xkblas/internal/blasops"
	"xkblas/internal/check"
	"xkblas/internal/metrics"
	"xkblas/internal/topology"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run regenerates the selected experiments on w and returns the exit
// status: 0 on success, 1 when a run, a sink or the audit fails, 2 on bad
// flags or an output path that cannot be created.
func run(args []string, w, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("xkbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: table1,fig2,fig3,table2,fig4,fig5,fig6,fig7,fig8,fig9,scale,summit,hermitian,pinning,factor,bign,sweep,batch,all")
	platformFlag := fs.String("platform", "",
		"simulated platform from the topology registry (empty = the DGX-1 of the paper); an unknown name lists the registered platforms and exits nonzero")
	quick := fs.Bool("quick", false, "reduced sizes and repetitions")
	csvPath := fs.String("csv", "", "write sweep points as CSV to this path (sweep experiments only)")
	libsFlag := fs.String("libs", "", "custom sweep (-exp sweep): comma-separated library names; empty = Fig. 5 roster")
	routinesFlag := fs.String("routines", "GEMM", "custom sweep: comma-separated routine names")
	sizesFlag := fs.String("sizes", "8192,16384,32768", "custom sweep: comma-separated matrix dimensions")
	tilesFlag := fs.String("tiles", "1024,2048,4096", "custom sweep: comma-separated tile sizes")
	runs := fs.Int("runs", 3, "custom sweep: measured repetitions")
	dod := fs.Bool("dod", false, "custom sweep: data-on-device scenario")
	plot := fs.Bool("plot", false, "render sweep results as ASCII TFlop/s-vs-N charts")
	decisions := fs.Bool("decisions", false,
		"print the policy-decision counters (transfer sources by link class, optimistic chains, evictions, steals) of each sweep point")
	parallel := fs.Int("parallel", runtime.NumCPU(),
		"workers for independent simulated runs, the calling goroutine included (1 = every run on the calling goroutine, in plan order; results are bit-identical at any level)")
	checkFlag := fs.Bool("check", false,
		"run every simulation under the coherence-invariant auditor (internal/check); violations surface as per-point errors and a non-zero exit")
	timeout := fs.Duration("timeout", 0,
		"wall-clock bound for the whole run (0 = none); on expiry — or on Ctrl-C — no new simulations start, in-flight ones are aborted, completed points are flushed to every sink and the exit status is nonzero")
	metricsFlag := fs.Bool("metrics", false,
		"collect per-run utilization metrics (resource occupancy, link-class traffic, cache and scheduler counters); prints a per-point rollup table and, with -csv out.csv, writes the full snapshots to out.metrics.json")
	window := fs.Int("window", 0,
		"stream every run's task DAG through a bounded admission window of this many live tasks instead of materializing it whole (0 = whole graph); numerical results never change, but a window small enough to bind delays admission and changes the timings")
	batchCount := fs.Int("batch-count", 0,
		"batch experiment: pin the batch size (instances per request) instead of sweeping the default grid (0 = sweep)")
	batchN := fs.Int("batch-n", 0,
		"batch experiment: pin the square instance dimension instead of sweeping the default grid (0 = sweep)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of this process to this path")
	memProfile := fs.String("memprofile", "", "write an allocation profile of this process to this path at exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if msg := flagProblem(*window, *parallel, *runs, *batchCount, *batchN, *sizesFlag, *tilesFlag, *timeout); msg != "" {
		fmt.Fprintf(stderr, "xkbench: %s\n", msg)
		fs.Usage()
		return 2
	}
	// cfg carries every run-wide setting to the experiments; its
	// Ctx is the deadline/SIGINT context built below. Its leaf memo lets
	// every experiment of this invocation share the leaves it simulates.
	cfg := bench.Config{
		Parallel:     *parallel,
		Check:        *checkFlag,
		Metrics:      *metricsFlag,
		StreamWindow: *window,
		Memo:         bench.NewLeafMemo(),
	}
	if *platformFlag != "" {
		plat, ok := topology.Lookup(*platformFlag)
		if !ok {
			fmt.Fprintf(stderr, "xkbench: unknown platform %q; registered platforms: %s\n",
				*platformFlag, strings.Join(topology.Names(), ", "))
			return 2
		}
		cfg.Platform = plat
	}

	// Deadline and SIGINT share one context, which cfg hands to every
	// experiment. Without -timeout and without a signal the context
	// never fires and the run is bit-identical to an unbounded one.
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
	}
	defer cancel()
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt)
	defer stopSignals()
	cfg.Ctx = ctx

	// The custom sweep's settings fail the run only when -exp sweep runs it.
	sweep, err := sweepConfig(w, cfg, *libsFlag, *routinesFlag, *sizesFlag, *tilesFlag, *runs, *dod)
	if err != nil && *exp == "sweep" {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var points []bench.Point
	// exps runs each experiment by name; row experiments print rows as
	// they are produced.
	exps := map[string]func(){
		"table1": func() { bench.TableI(w, cfg) },
		"fig2":   func() { bench.Fig2BandwidthMatrix(w, cfg) },
		"fig3":   func() { points = append(points, bench.Fig3(w, cfg, *quick)...) },
		"fig4":   func() { points = append(points, bench.Fig4(w, cfg, *quick)...) },
		"fig5":   func() { points = append(points, bench.Fig5(w, cfg, *quick)...) },
		"bign": func() {
			for _, r := range bench.BigN(w, cfg, *quick) {
				if r.Err != nil {
					code = 1 // returned once every sink is written
				}
			}
		},
		"sweep": func() {
			fmt.Fprintf(w, "Custom sweep (%s)\n", sweep.Scenario)
			points = append(points, bench.RunSweep(sweep)...)
		},
		"batch": func() { bench.BatchSweep(w, cfg, *quick, *batchCount, *batchN) },
	}
	for name, fn := range map[string]func(io.Writer, bench.Config, bool) []bench.Row{
		"table2": bench.TableII, "fig6": bench.Fig6, "fig7": bench.Fig7, "fig8": bench.Fig8, "fig9": bench.Fig9,
		"scale": bench.Scalability, "summit": bench.SummitPrediction, "hermitian": bench.Hermitian,
		"pinning": bench.PinningCost, "factor": bench.Factorizations,
	} {
		exps[name] = func() { fn(w, cfg, *quick) }
	}
	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "fig2", "fig3", "table2", "fig4", "fig5",
			"fig6", "fig7", "fig8", "fig9", "scale", "summit", "hermitian", "pinning", "factor"}
	} else if exps[*exp] == nil {
		fmt.Fprintf(stderr, "unknown experiment %q\n", *exp)
		fs.Usage()
		return 2
	}
	// The sinks are created (empty) before the first simulation, so an
	// unusable path fails at once; the points are written at the end.
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, nil, 0o666); err != nil {
			fmt.Fprintf(stderr, "csv: %v\n", err)
			return 2
		}
		if *metricsFlag {
			if err := os.WriteFile(metricsPath(*csvPath), nil, 0o666); err != nil {
				fmt.Fprintf(stderr, "metrics json: %v\n", err)
				return 2
			}
		}
	}
	stopProfiles, err := metrics.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(stderr, "xkbench: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "xkbench: %v\n", err)
			code = max(code, 1)
		}
	}()

	for _, name := range names {
		if *exp == "all" {
			fmt.Fprintf(w, "==== %s ====\n", strings.ToUpper(name))
		}
		exps[name]()
		fmt.Fprintln(w)
	}

	if *plot && len(points) > 0 {
		fmt.Fprintln(w)
		if err := bench.PlotSweep(w, points, 90, 18); err != nil {
			fmt.Fprintf(stderr, "plot: %v\n", err)
			return 1
		}
	}

	if *decisions && len(points) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Policy decision counters (best tile, first measured run):")
		if err := bench.WriteDecisions(w, points); err != nil {
			fmt.Fprintf(stderr, "decisions: %v\n", err)
			return 1
		}
	}

	if *metricsFlag && len(points) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Resource utilization (best tile, first measured run):")
		if err := bench.WriteMetricsTable(w, points); err != nil {
			fmt.Fprintf(stderr, "metrics: %v\n", err)
			return 1
		}
	}

	if *csvPath != "" {
		if err := writeCSVFile(*csvPath, points); err != nil {
			fmt.Fprintf(stderr, "csv: %v\n", err)
			return 1
		}
		fmt.Fprintf(w, "wrote %d points to %s\n", len(points), *csvPath)
		if *metricsFlag {
			mp := metricsPath(*csvPath)
			if err := writeMetricsJSONFile(mp, points); err != nil {
				fmt.Fprintf(stderr, "metrics json: %v\n", err)
				return 1
			}
			fmt.Fprintf(w, "wrote metrics snapshots to %s\n", mp)
		}
	}

	if *checkFlag {
		drains, violations := check.Stats()
		fmt.Fprintf(w, "coherence audit: %d clean drains, %d violations\n", drains, violations)
		if violations > 0 {
			return 1
		}
	}

	if err := ctx.Err(); err != nil {
		// All sinks above have been flushed with the completed prefix.
		fmt.Fprintf(stderr, "xkbench: run aborted: %v\n", err)
		return 1
	}
	return code
}

// maxWholeGraphTasks bounds the whole-graph DAG one -sizes × -tiles pair
// may ask for without -window: ceil(N/nb)³ GEMM tasks. It is 13× the
// largest whole graph a committed experiment builds (-exp bign's 68³ =
// 314,432 tasks).
const maxWholeGraphTasks = 1 << 22

// flagProblem validates the numeric flags before any simulation starts,
// returning a diagnostic message (empty = valid). -window 0 means "whole
// graph", -batch-count/-batch-n 0 mean "sweep the default grid" and
// -timeout 0 means "no bound", so only negatives are nonsense there; a
// parallelism or repetition count below 1 and a nonpositive -sizes/-tiles
// entry have no meaning at all. Without -window, a -sizes × -tiles pair
// whose whole graph exceeds maxWholeGraphTasks is rejected: generating it
// would outrun any deadline.
func flagProblem(window, parallel, runs, batchCount, batchN int, sizes, tiles string, timeout time.Duration) string {
	switch {
	case window < 0:
		return fmt.Sprintf("-window must be >= 0, got %d", window)
	case parallel < 1:
		return fmt.Sprintf("-parallel must be >= 1, got %d", parallel)
	case runs < 1:
		return fmt.Sprintf("-runs must be >= 1, got %d", runs)
	case batchCount < 0:
		return fmt.Sprintf("-batch-count must be >= 0, got %d", batchCount)
	case batchN < 0:
		return fmt.Sprintf("-batch-n must be >= 0, got %d", batchN)
	case timeout < 0:
		return fmt.Sprintf("-timeout must be >= 0, got %v", timeout)
	}
	ns, err := parseInts(sizes)
	if err != nil {
		return fmt.Sprintf("-sizes: %v", err)
	}
	nbs, err := parseInts(tiles)
	if err != nil {
		return fmt.Sprintf("-tiles: %v", err)
	}
	if window > 0 {
		return ""
	}
	for _, n := range ns {
		for _, nb := range nbs {
			nt := n / nb
			if n%nb != 0 {
				nt++
			}
			// nt > 1<<20 is over the bound and would overflow the cube.
			if nt > 1<<20 || nt*nt*nt > maxWholeGraphTasks {
				return fmt.Sprintf("-sizes %d with -tiles %d asks for a whole graph of %d³ tasks, more than %d; stream it through -window",
					n, nb, nt, maxWholeGraphTasks)
			}
		}
	}
	return ""
}

// writeCSVTo writes the points as CSV to wc and closes it, reporting the
// first error of either step: a short write and a failed Close (where a
// full disk often first surfaces) must both fail the command. An empty
// point set still produces the CSV header, so downstream tooling can tell
// "sweep ran and measured nothing" from "sweep never wrote its output".
func writeCSVTo(wc io.WriteCloser, points []bench.Point) error {
	werr := bench.WriteCSV(wc, points)
	cerr := wc.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// writeCSVFile creates path and writes the points through writeCSVTo.
func writeCSVFile(path string, points []bench.Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return writeCSVTo(f, points)
}

// metricsPath derives the metrics-JSON sink path from the CSV path:
// out.csv -> out.metrics.json.
func metricsPath(csvPath string) string {
	return strings.TrimSuffix(csvPath, ".csv") + ".metrics.json"
}

// writeMetricsJSONTo writes the per-point metrics snapshots to wc and closes
// it, reporting the first error of either step (same contract as
// writeCSVTo).
func writeMetricsJSONTo(wc io.WriteCloser, points []bench.Point) error {
	werr := bench.WriteMetricsJSON(wc, points)
	cerr := wc.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// writeMetricsJSONFile creates path and writes through writeMetricsJSONTo.
func writeMetricsJSONFile(path string, points []bench.Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return writeMetricsJSONTo(f, points)
}

// sweepConfig builds the custom sweep (-exp sweep) over the run-wide
// settings of run; w receives its progress lines.
func sweepConfig(w io.Writer, run bench.Config, libsSpec, routinesSpec, sizesSpec, tilesSpec string, runs int, dod bool) (bench.Config, error) {
	cfg := run
	cfg.Runs = runs
	cfg.NoiseAmp = 0.02
	cfg.Progress = w
	cfg.ExtraTilesFor = map[string]bool{"cuBLAS-XT": true, "Slate": true}
	if dod {
		cfg.Scenario = baseline.DataOnDevice
	}
	cfg.Libs = bench.Roster()
	var err error
	if libsSpec != "" {
		if cfg.Libs, err = parseLibs(libsSpec); err != nil {
			return cfg, err
		}
	}
	for _, rn := range strings.Split(routinesSpec, ",") {
		r, err := blasops.ParseRoutine(strings.TrimSpace(rn))
		if err != nil {
			return cfg, err
		}
		cfg.Routines = append(cfg.Routines, r)
	}
	if cfg.Sizes, err = parseInts(sizesSpec); err != nil {
		return cfg, fmt.Errorf("sizes: %w", err)
	}
	if cfg.Tiles, err = parseInts(tilesSpec); err != nil {
		return cfg, fmt.Errorf("tiles: %w", err)
	}
	return cfg, nil
}

// parseLibs resolves a -libs list. A library name may itself contain ", "
// (the Fig. 3 ablations), so each library takes the longest run of
// comma-separated pieces that bench.LibraryByName knows, trimmed and
// joined with ", ".
func parseLibs(spec string) (libs []baseline.Library, err error) {
	pieces := strings.Split(spec, ",")
	for i := 0; i < len(pieces); {
		var lib baseline.Library
		n, name := 0, ""
		for j, p := range pieces[i:] {
			name += ", " + strings.TrimSpace(p)
			if l := bench.LibraryByName(name[2:]); l != nil {
				lib, n = l, j+1
			}
		}
		if lib == nil {
			return nil, fmt.Errorf("unknown library %q", pieces[i])
		}
		libs, i = append(libs, lib), i+n
	}
	return libs, nil
}

// parseInts parses a comma-separated list of positive integers (matrix
// dimensions or tile sizes).
func parseInts(spec string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("entries must be >= 1, got %d", v)
		}
		out = append(out, v)
	}
	return out, nil
}
