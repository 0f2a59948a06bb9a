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
//	xkserve -requests 300 -check              # audit every inner simulation; summary on stderr
//
// Two invocations with the same flags produce byte-identical reports: the
// workload is a pure function of the seed and the serving simulation runs
// in virtual time. -parallel changes only wall-clock speed.
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

	"xkblas/internal/check"
	"xkblas/internal/metrics"
	"xkblas/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run replays the workload and returns the exit status: 0 on success, 1
// when the replay, an output or the audit fails, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("xkserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fleetFlag := fs.String("fleet", "dgx1,dgx2", "comma-separated platforms from the topology registry")
	tenants := fs.Int("tenants", 120, "simulated tenant count")
	requests := fs.Int("requests", 1200, "request count to replay")
	arrivalFlag := fs.String("arrival", "bursty", "arrival process: poisson or bursty (two-state MMPP)")
	rate := fs.Float64("rate", 300, "mean aggregate arrival rate, requests per virtual second")
	seed := fs.Int64("seed", 1, "load-generator seed; one seed replays one trace bit for bit")
	qdepth := fs.Int("qdepth", 8, "bounded admission-queue depth per platform")
	inflight := fs.Int("inflight", 4, "jobs time-sharing one platform at once")
	backpressureFlag := fs.String("backpressure", "reject",
		"policy when the admission queue is full: reject (typed error) or block (unbounded spill)")
	batchMax := fs.Int("batch-max", 8, "max requests fused into one batched DAG (<=1 disables batching)")
	parallel := fs.Int("parallel", runtime.NumCPU(),
		"worker goroutines prewarming the demand table (results are bit-identical at any level)")
	checkFlag := fs.Bool("check", false,
		"run every inner simulation under the coherence-invariant auditor; prints the audit summary on stderr and exits nonzero on any violation")
	timeout := fs.Duration("timeout", 0, "wall-clock bound for the run (0 = none); Ctrl-C always aborts")
	jsonPath := fs.String("json", "", "write the report's metrics snapshot as JSON to this path (- for stdout)")
	quiet := fs.Bool("quiet", false, "suppress the human-readable report")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of this process to this path")
	memProfile := fs.String("memprofile", "", "write an allocation profile of this process to this path at exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, err)
		return code
	}

	cfg := serve.Defaults()
	var err error
	if cfg.Fleet, err = serve.ParseFleet(*fleetFlag); err != nil {
		return fail(2, err)
	}
	if cfg.Arrival, err = serve.ParseArrival(*arrivalFlag); err != nil {
		return fail(2, err)
	}
	if cfg.Backpressure, err = serve.ParseBackpressure(*backpressureFlag); err != nil {
		return fail(2, err)
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
		return fail(2, fmt.Errorf("xkserve: -timeout must be >= 0, got %v", *timeout))
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
		return fail(2, fmt.Errorf("xkserve: %w", err))
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "xkserve: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	rep, err := serve.Run(cfg)
	if err != nil {
		return fail(1, fmt.Errorf("xkserve: %w", err))
	}
	if !*quiet {
		rep.WriteText(stdout)
	}
	if *jsonPath != "" {
		if err := writeJSON(rep, *jsonPath, stdout); err != nil {
			return fail(1, err)
		}
	}
	if *checkFlag {
		// On stderr, so a checked report diffs clean against an unchecked one.
		drains, violations := check.Stats()
		fmt.Fprintf(stderr, "coherence audit: %d clean drains, %d violations\n", drains, violations)
		if violations > 0 {
			return 1
		}
	}
	return 0
}

// writeJSON writes the report's metrics snapshot to path, or to stdout
// when path is "-", reporting a failed write or close.
func writeJSON(rep *serve.Report, path string, stdout io.Writer) error {
	if path == "-" {
		return rep.WriteJSON(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := rep.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
