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
//	# Multi-tenant serving front end (internal/serve): replay a seeded
//	# tenant workload against a platform fleet. Not part of -exp all.
//	xkbench -exp serve -quick
//	xkbench -exp serve -tenants 200 -requests 5000 -backpressure block -serve-json out.json
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
// fig8, fig9. Extensions: scale, summit, hermitian, pinning, factor, serve,
// batch.
package main

import (
	"context"
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
	"xkblas/internal/serve"
	"xkblas/internal/topology"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1,fig2,fig3,table2,fig4,fig5,fig6,fig7,fig8,fig9,scale,summit,hermitian,pinning,factor,bign,sweep,serve,batch,all")
	platformFlag := flag.String("platform", "",
		"simulated platform from the topology registry (empty = the DGX-1 of the paper); an unknown name lists the registered platforms and exits nonzero")
	quick := flag.Bool("quick", false, "reduced sizes and repetitions")
	csvPath := flag.String("csv", "", "write sweep points as CSV to this path (sweep experiments only)")
	libsFlag := flag.String("libs", "", "custom sweep (-exp sweep): comma-separated library names; empty = Fig. 5 roster")
	routinesFlag := flag.String("routines", "GEMM", "custom sweep: comma-separated routine names")
	sizesFlag := flag.String("sizes", "8192,16384,32768", "custom sweep: comma-separated matrix dimensions")
	tilesFlag := flag.String("tiles", "1024,2048,4096", "custom sweep: comma-separated tile sizes")
	runs := flag.Int("runs", 3, "custom sweep: measured repetitions")
	dod := flag.Bool("dod", false, "custom sweep: data-on-device scenario")
	plot := flag.Bool("plot", false, "render sweep results as ASCII TFlop/s-vs-N charts")
	decisions := flag.Bool("decisions", false,
		"print the policy-decision counters (transfer sources by link class, optimistic chains, evictions, steals) of each sweep point")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"worker goroutines for independent simulated runs (1 = sequential; results are bit-identical at any level)")
	checkFlag := flag.Bool("check", false,
		"run every simulation under the coherence-invariant auditor (internal/check); violations surface as per-point errors and a non-zero exit")
	timeout := flag.Duration("timeout", 0,
		"wall-clock bound for the whole run (0 = none); on expiry — or on Ctrl-C — no new simulations start, in-flight ones are aborted, completed points are flushed to every sink and the exit status is nonzero")
	metricsFlag := flag.Bool("metrics", false,
		"collect per-run utilization metrics (resource occupancy, link-class traffic, cache and scheduler counters); prints a per-point rollup table and, with -csv out.csv, writes the full snapshots to out.metrics.json")
	window := flag.Int("window", 0,
		"stream every run's task DAG through a bounded admission window of this many live tasks instead of materializing it whole (0 = whole graph); results are bit-identical at any window mode, only peak memory changes")
	tenants := flag.Int("tenants", 120, "serve experiment: simulated tenant count")
	requests := flag.Int("requests", 1200, "serve experiment: request count to replay (-quick runs 300)")
	arrivalFlag := flag.String("arrival", "bursty", "serve experiment: arrival process, poisson or bursty (two-state MMPP)")
	rate := flag.Float64("rate", 300, "serve experiment: mean aggregate arrival rate, requests per virtual second")
	seed := flag.Int64("seed", 1, "serve experiment: load-generator seed; one seed replays one trace bit for bit")
	fleetFlag := flag.String("fleet", "dgx1,dgx2", "serve experiment: comma-separated platforms from the topology registry")
	qdepth := flag.Int("qdepth", 8, "serve experiment: bounded admission-queue depth per platform")
	backpressureFlag := flag.String("backpressure", "reject",
		"serve experiment: policy when the admission queue is full — reject (typed error) or block (unbounded spill)")
	serveJSON := flag.String("serve-json", "", "serve experiment: write the report's metrics snapshot as JSON to this path")
	batchCount := flag.Int("batch-count", 0,
		"batch experiment: pin the batch size (instances per request) instead of sweeping the default grid (0 = sweep)")
	batchN := flag.Int("batch-n", 0,
		"batch experiment: pin the square instance dimension instead of sweeping the default grid (0 = sweep)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of this process to this path")
	memProfile := flag.String("memprofile", "", "write an allocation profile of this process to this path at exit")
	flag.Parse()

	if msg := flagProblem(*window, *parallel, *runs, *batchCount, *batchN, *sizesFlag, *tilesFlag, *timeout); msg != "" {
		fmt.Fprintf(os.Stderr, "xkbench: %s\n", msg)
		flag.Usage()
		os.Exit(2)
	}
	// run carries every run-wide setting to the experiment drivers; its
	// Ctx is the deadline/SIGINT context built below. Its leaf memo lets
	// every experiment of this invocation share the leaves it simulates.
	run := bench.Config{
		Parallel:     *parallel,
		Check:        *checkFlag,
		Metrics:      *metricsFlag,
		StreamWindow: *window,
		Memo:         bench.NewLeafMemo(),
	}
	if *platformFlag != "" {
		plat, ok := topology.Lookup(*platformFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "xkbench: unknown platform %q; registered platforms: %s\n",
				*platformFlag, strings.Join(topology.Names(), ", "))
			os.Exit(2)
		}
		run.Platform = plat
	}
	stopProfiles, err := metrics.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xkbench: %v\n", err)
		os.Exit(2)
	}
	// exit ends the process through the profile writers: os.Exit skips
	// deferred calls, so every exit from here on goes through it.
	exit := func(code int) {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "xkbench: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	// Deadline and SIGINT share one context, which run hands to every
	// experiment driver. Without -timeout and without a signal the context
	// never fires and the run is bit-identical to an unbounded one.
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
	}
	defer cancel()
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt)
	defer stopSignals()
	run.Ctx = ctx

	w := os.Stdout
	var points []bench.Point
	exitErr := false
	runExp := func(name string) {
		switch name {
		case "table1":
			bench.TableI(w, run)
		case "fig2":
			bench.Fig2BandwidthMatrix(w, run)
		case "fig3":
			points = append(points, bench.Fig3(w, run, *quick)...)
		case "table2":
			bench.TableII(w, run, *quick)
		case "fig4":
			points = append(points, bench.Fig4(w, run, *quick)...)
		case "fig5":
			points = append(points, bench.Fig5(w, run, *quick)...)
		case "fig6":
			bench.Fig6(w, run, *quick)
		case "fig7":
			bench.Fig7(w, run, *quick)
		case "fig8":
			bench.Fig8(w, run, *quick)
		case "fig9":
			bench.Fig9(w, run, *quick)
		case "scale":
			bench.Scalability(w, run, *quick)
		case "summit":
			bench.SummitPrediction(w, run, *quick)
		case "hermitian":
			bench.Hermitian(w, run, *quick)
		case "pinning":
			bench.PinningCost(w, run, *quick)
		case "factor":
			bench.Factorizations(w, run, *quick)
		case "bign":
			for _, r := range bench.BigN(w, run, *quick) {
				if r.Err != nil {
					exitErr = true
				}
			}
		case "sweep":
			pts, err := customSweep(w, run, *libsFlag, *routinesFlag, *sizesFlag, *tilesFlag, *runs, *dod)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(2)
			}
			points = append(points, pts...)
		case "batch":
			bench.BatchSweep(w, run, *quick, *batchCount, *batchN)
		case "serve":
			cfg, err := serveConfig(*fleetFlag, *arrivalFlag, *backpressureFlag,
				*tenants, *requests, *qdepth, *parallel, *rate, *seed, *quick, *checkFlag, ctx)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(2)
			}
			if _, err := serveRun(w, cfg, *serveJSON); err != nil {
				fmt.Fprintf(os.Stderr, "xkbench: serve: %v\n", err)
				exitErr = true
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			flag.Usage()
			exit(2)
		}
		fmt.Fprintln(w)
	}

	if *exp == "all" {
		for _, name := range []string{"table1", "fig2", "fig3", "table2", "fig4", "fig5",
			"fig6", "fig7", "fig8", "fig9", "scale", "summit", "hermitian", "pinning", "factor"} {
			fmt.Fprintf(w, "==== %s ====\n", strings.ToUpper(name))
			runExp(name)
		}
	} else {
		runExp(*exp)
	}

	if *plot && len(points) > 0 {
		fmt.Fprintln(w)
		if err := bench.PlotSweep(w, points, 90, 18); err != nil {
			fmt.Fprintf(os.Stderr, "plot: %v\n", err)
			exit(1)
		}
	}

	if *decisions && len(points) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Policy decision counters (best tile, first measured run):")
		if err := bench.WriteDecisions(w, points); err != nil {
			fmt.Fprintf(os.Stderr, "decisions: %v\n", err)
			exit(1)
		}
	}

	if *metricsFlag && len(points) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Resource utilization (best tile, first measured run):")
		if err := bench.WriteMetricsTable(w, points); err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			exit(1)
		}
	}

	if *csvPath != "" {
		if err := writeCSVFile(*csvPath, points); err != nil {
			fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			exit(1)
		}
		fmt.Fprintf(w, "wrote %d points to %s\n", len(points), *csvPath)
		if *metricsFlag {
			mp := metricsPath(*csvPath)
			if err := writeMetricsJSONFile(mp, points); err != nil {
				fmt.Fprintf(os.Stderr, "metrics json: %v\n", err)
				exit(1)
			}
			fmt.Fprintf(w, "wrote metrics snapshots to %s\n", mp)
		}
	}

	if *checkFlag {
		drains, violations := check.Stats()
		fmt.Fprintf(w, "coherence audit: %d clean drains, %d violations\n", drains, violations)
		if violations > 0 {
			exit(1)
		}
	}

	if err := ctx.Err(); err != nil {
		// All sinks above have been flushed with the completed prefix.
		fmt.Fprintf(os.Stderr, "xkbench: run aborted: %v\n", err)
		exit(1)
	}
	if exitErr {
		exit(1)
	}
	exit(0)
}

// flagProblem validates the numeric flags before any simulation starts,
// returning a diagnostic message (empty = valid). -window 0 means "whole
// graph", -batch-count/-batch-n 0 mean "sweep the default grid" and
// -timeout 0 means "no bound", so only negatives are nonsense there; a
// parallelism or repetition count below 1 and a nonpositive -sizes/-tiles
// entry have no meaning at all.
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
	for _, f := range [...]struct{ name, spec string }{{"-sizes", sizes}, {"-tiles", tiles}} {
		if _, err := parseInts(f.spec); err != nil {
			return fmt.Sprintf("%s: %v", f.name, err)
		}
	}
	return ""
}

// serveConfig builds the multi-tenant serving scenario from the flag set.
// -quick keeps the flags' tenant/fleet shape but trims the replay to 300
// requests unless -requests was moved off its default.
func serveConfig(fleet, arrival, backpressure string, tenants, requests, qdepth, parallel int,
	rate float64, seed int64, quick, check bool, ctx context.Context) (serve.Config, error) {
	cfg := serve.Defaults()
	var err error
	if cfg.Fleet, err = serve.ParseFleet(fleet); err != nil {
		return cfg, err
	}
	if cfg.Arrival, err = serve.ParseArrival(arrival); err != nil {
		return cfg, err
	}
	if cfg.Backpressure, err = serve.ParseBackpressure(backpressure); err != nil {
		return cfg, err
	}
	cfg.Tenants = tenants
	cfg.Requests = requests
	if quick && requests == 1200 {
		cfg.Requests = 300
	}
	cfg.QueueDepth = qdepth
	cfg.Parallel = parallel
	cfg.RatePerSec = rate
	cfg.Seed = seed
	cfg.Check = check
	cfg.Ctx = ctx
	return cfg, nil
}

// serveRun executes the serving scenario, prints its report, and
// optionally writes the report's metrics snapshot as JSON.
func serveRun(w io.Writer, cfg serve.Config, jsonPath string) (*serve.Report, error) {
	rep, err := serve.Run(cfg)
	if err != nil {
		return nil, err
	}
	rep.WriteText(w)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return nil, err
		}
		werr := rep.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return nil, werr
		}
		fmt.Fprintf(w, "wrote serve metrics snapshot to %s\n", jsonPath)
	}
	return rep, nil
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

// customSweep runs a user-specified sweep over the library roster with the
// run-wide settings of run.
func customSweep(w *os.File, run bench.Config, libsSpec, routinesSpec, sizesSpec, tilesSpec string, runs int, dod bool) ([]bench.Point, error) {
	cfg := run
	cfg.Runs = runs
	cfg.NoiseAmp = 0.02
	cfg.Progress = w
	cfg.ExtraTilesFor = map[string]bool{"cuBLAS-XT": true, "Slate": true}
	if dod {
		cfg.Scenario = baseline.DataOnDevice
	}
	if libsSpec == "" {
		cfg.Libs = bench.Roster()
	} else {
		byName := make(map[string]baseline.Library)
		for _, l := range bench.Roster() {
			byName[l.Name()] = l
		}
		for _, l := range []baseline.Library{baseline.XKBlasNoHeuristic(), baseline.XKBlasNoHeuristicNoTopo(), baseline.XKBlasNearest()} {
			byName[l.Name()] = l
		}
		for _, name := range strings.Split(libsSpec, ",") {
			lib, ok := byName[strings.TrimSpace(name)]
			if !ok {
				return nil, fmt.Errorf("unknown library %q", name)
			}
			cfg.Libs = append(cfg.Libs, lib)
		}
	}
	for _, rn := range strings.Split(routinesSpec, ",") {
		r, err := blasops.ParseRoutine(strings.TrimSpace(rn))
		if err != nil {
			return nil, err
		}
		cfg.Routines = append(cfg.Routines, r)
	}
	var err error
	if cfg.Sizes, err = parseInts(sizesSpec); err != nil {
		return nil, fmt.Errorf("sizes: %w", err)
	}
	if cfg.Tiles, err = parseInts(tilesSpec); err != nil {
		return nil, fmt.Errorf("tiles: %w", err)
	}
	fmt.Fprintf(w, "Custom sweep (%s)\n", cfg.Scenario)
	return bench.RunSweep(cfg), nil
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
