// Command xktrace runs one routine on a chosen library with tracing and
// prints the nvprof-style analysis of §IV-E: cumulative time per operation
// kind, the per-GPU breakdown and an ASCII Gantt chart.
//
// Example:
//
//	xktrace -lib XKBlas -routine SYR2K -n 16384 -nb 2048 -gantt
//	xktrace -lib cuBLAS-XT -routine GEMM -n 32768 -nb 4096
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"xkblas/internal/baseline"
	"xkblas/internal/bench"
	"xkblas/internal/blasops"
	"xkblas/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run traces one routine and returns the exit status: 0 on success, 1 when
// the run or an output fails, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xktrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	libName := fs.String("lib", "XKBlas", "library name (as in Fig. 5)")
	routine := fs.String("routine", "GEMM", "GEMM|SYMM|SYR2K|SYRK|TRMM|TRSM")
	n := fs.Int("n", 16384, "matrix dimension")
	nb := fs.Int("nb", 2048, "tile size")
	dod := fs.Bool("dod", false, "data-on-device scenario")
	gantt := fs.Bool("gantt", false, "render the ASCII Gantt chart")
	width := fs.Int("width", 120, "Gantt width in characters")
	chrome := fs.String("chrome", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) to this path")
	metricsFlag := fs.Bool("metrics", false, "print the run's full deterministic metrics snapshot as JSON")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{{"-n", *n}, {"-nb", *nb}, {"-width", *width}} {
		if f.v < 1 {
			fmt.Fprintf(stderr, "xktrace: %s must be >= 1, got %d\n", f.name, f.v)
			fs.Usage()
			return 2
		}
	}

	lib := bench.LibraryByName(*libName)
	if lib == nil {
		fmt.Fprintf(stderr, "unknown library %q\n", *libName)
		return 2
	}
	r, err := blasops.ParseRoutine(*routine)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	req := baseline.Request{Routine: r, N: *n, NB: *nb, Trace: true, Metrics: *metricsFlag}
	if *dod {
		req.Scenario = baseline.DataOnDevice
	}
	res := lib.Run(req)
	if res.Err != nil {
		fmt.Fprintf(stderr, "run: %v\n", res.Err)
		return 1
	}
	fmt.Fprintf(stdout, "%s %s N=%d nb=%d (%s): %.3fs virtual, %.1f GFlop/s\n",
		lib.Name(), r, *n, *nb, req.Scenario, float64(res.Elapsed), res.GFlops)
	fmt.Fprintf(stdout, "traffic: H2D %.2f GB (%d), D2H %.2f GB (%d), P2P %.2f GB (%d), evictions %d\n",
		float64(res.Cache.H2DBytes)/1e9, res.Cache.H2DCount,
		float64(res.Cache.D2HBytes)/1e9, res.Cache.D2HCount,
		float64(res.Cache.P2PBytes)/1e9, res.Cache.P2PCount,
		res.Cache.Evictions)
	fmt.Fprintf(stdout, "decisions: %s\n\n", res.Decisions)

	fmt.Fprintln(stdout, "Cumulative GPU time by operation kind (Fig. 6 style):")
	cum := res.Rec.CumulativeByKind()
	norm := res.Rec.NormalizedByKind()
	for _, k := range trace.Kinds() {
		fmt.Fprintf(stdout, "  %-12s %9.3fs  %5.1f%%\n", k, float64(cum[k]), norm[k])
	}

	fmt.Fprintln(stdout, "\nPer-GPU breakdown (Fig. 7 style):")
	per := res.Rec.PerGPUByKind(8)
	fmt.Fprintf(stdout, "  %-5s", "GPU")
	for _, k := range trace.Kinds() {
		fmt.Fprintf(stdout, " %12s", k)
	}
	fmt.Fprintln(stdout)
	for g := range per {
		fmt.Fprintf(stdout, "  %-5d", g+1)
		for _, k := range trace.Kinds() {
			fmt.Fprintf(stdout, " %11.3fs", float64(per[g][k]))
		}
		fmt.Fprintln(stdout)
	}

	if *gantt {
		fmt.Fprintln(stdout)
		if err := res.Rec.Gantt(stdout, 8, *width); err != nil {
			fmt.Fprintf(stderr, "gantt: %v\n", err)
			return 1
		}
	}

	if *metricsFlag {
		fmt.Fprintln(stdout, "\nMetrics snapshot:")
		if err := res.Metrics.WriteJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "metrics: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout)
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintf(stderr, "chrome: %v\n", err)
			return 1
		}
		dropped, err := res.Rec.WriteChromeTrace(f, 8)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "chrome: %v\n", err)
			return 1
		}
		if dropped > 0 {
			fmt.Fprintf(stderr, "chrome: %d events outside the exported device range were dropped\n", dropped)
		}
		fmt.Fprintf(stdout, "\nwrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", *chrome)
	}
	return 0
}
