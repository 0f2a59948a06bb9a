// Command xkserve runs the multi-tenant BLAS-as-a-service front end
// (internal/serve) as a standalone binary: it replays a seeded tenant
// workload against a simulated platform fleet, prints the serving report,
// and can write the report's metrics snapshot as JSON.
//
// Usage:
//
//	xkserve                                   # canonical scenario: 1200 requests, 120 tenants, dgx1+dgx2
//	xkserve -requests 5000 -tenants 500       # bigger replay
//	xkserve -arrival poisson -backpressure block
//	xkserve -json - -quiet                    # metrics snapshot JSON on stdout, nothing else
//	xkserve -cpuprofile cpu.pprof             # profile the replay's host time (-memprofile: allocations)
//
// Two invocations with the same flags produce byte-identical reports: the
// workload is a pure function of the seed and the serving simulation runs
// in virtual time. -parallel changes only wall-clock speed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"

	"xkblas/internal/metrics"
	"xkblas/internal/serve"
)

func main() {
	fleetFlag := flag.String("fleet", "dgx1,dgx2", "comma-separated platforms from the topology registry")
	tenants := flag.Int("tenants", 120, "simulated tenant count")
	requests := flag.Int("requests", 1200, "request count to replay")
	arrivalFlag := flag.String("arrival", "bursty", "arrival process: poisson or bursty (two-state MMPP)")
	rate := flag.Float64("rate", 300, "mean aggregate arrival rate, requests per virtual second")
	seed := flag.Int64("seed", 1, "load-generator seed; one seed replays one trace bit for bit")
	qdepth := flag.Int("qdepth", 8, "bounded admission-queue depth per platform")
	inflight := flag.Int("inflight", 4, "jobs time-sharing one platform at once")
	backpressureFlag := flag.String("backpressure", "reject",
		"policy when the admission queue is full: reject (typed error) or block (unbounded spill)")
	batchMax := flag.Int("batch-max", 8, "max requests fused into one batched DAG (<=1 disables batching)")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"worker goroutines prewarming the demand table (results are bit-identical at any level)")
	checkFlag := flag.Bool("check", false, "run every inner simulation under the coherence-invariant auditor")
	timeout := flag.Duration("timeout", 0, "wall-clock bound for the run (0 = none); Ctrl-C always aborts")
	jsonPath := flag.String("json", "", "write the report's metrics snapshot as JSON to this path (- for stdout)")
	quiet := flag.Bool("quiet", false, "suppress the human-readable report")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of this process to this path")
	memProfile := flag.String("memprofile", "", "write an allocation profile of this process to this path at exit")
	flag.Parse()

	cfg := serve.Defaults()
	var err error
	if cfg.Fleet, err = serve.ParseFleet(*fleetFlag); err != nil {
		fail(2, err)
	}
	if cfg.Arrival, err = serve.ParseArrival(*arrivalFlag); err != nil {
		fail(2, err)
	}
	if cfg.Backpressure, err = serve.ParseBackpressure(*backpressureFlag); err != nil {
		fail(2, err)
	}
	cfg.Tenants = *tenants
	cfg.Requests = *requests
	cfg.RatePerSec = *rate
	cfg.Seed = *seed
	cfg.QueueDepth = *qdepth
	cfg.MaxInflight = *inflight
	cfg.BatchMax = *batchMax
	cfg.Parallel = *parallel
	cfg.Check = *checkFlag

	if *timeout < 0 {
		fail(2, fmt.Errorf("xkserve: -timeout must be >= 0, got %v", *timeout))
	}
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
	}
	defer cancel()
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt)
	defer stopSignals()
	cfg.Ctx = ctx

	stopProfiles, err := metrics.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fail(2, fmt.Errorf("xkserve: %w", err))
	}
	// exit ends the process through the profile writers: os.Exit skips
	// deferred calls, so every exit from here on goes through it.
	exit := func(code int, err error) {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintf(os.Stderr, "xkserve: %v\n", perr)
			if code == 0 {
				code = 1
			}
		}
		if err != nil {
			fail(code, err)
		}
		os.Exit(code)
	}

	rep, err := serve.Run(cfg)
	if err != nil {
		exit(1, fmt.Errorf("xkserve: %w", err))
	}
	if !*quiet {
		rep.WriteText(os.Stdout)
	}
	if *jsonPath != "" {
		var w io.WriteCloser = os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				exit(1, err)
			}
			w = f
		}
		werr := rep.WriteJSON(w)
		if *jsonPath != "-" {
			if cerr := w.Close(); werr == nil {
				werr = cerr
			}
		}
		if werr != nil {
			exit(1, werr)
		}
	}
	exit(0, nil)
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(code)
}
