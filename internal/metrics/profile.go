package metrics

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles profiles the simulator's own host process for the
// `-cpuprofile`/`-memprofile` flags of xkbench and xkserve. A non-empty
// cpuPath starts CPU profiling into that file now; a non-empty memPath
// names the file that receives the allocation profile when stop runs.
// stop ends CPU profiling and writes the allocation profile; call it once,
// before the process exits, on every exit path. Inspect the files with
// `go tool pprof -top <binary> <file>`.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		cpu = f
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpu profile: %w", err))
			}
		}
		if memPath != "" {
			if err := writeAllocProfile(memPath); err != nil {
				errs = append(errs, fmt.Errorf("memory profile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

// writeAllocProfile writes the allocation profile (every allocation since
// process start, plus the live heap) to path, as `go test -memprofile`
// does.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // publish the statistics of the most recent allocations
	werr := pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
