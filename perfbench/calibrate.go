package main

// Machine-state calibration.
//
// The host's last-level cache and memory are shared with other tenants,
// and their load changes the speed of memory-bound code by a factor of up
// to 1.7 within seconds, with no hypervisor steal and no page faults: the
// same streamed-GEMM iteration took 0.42 to 0.91 CPU seconds on one 2-vCPU
// VM within minutes. CPU time alone cannot tell that from a program
// change. So before each iteration and each set-up, and after the last,
// the benchmark times a fixed random pointer chase through a buffer larger
// than the simulations' working sets. The chase is slowed by the same
// contention, and a phase's CPU time is scaled to a reference state by the
// mean of the two chases around it. Across five or six 20-second runs per
// workload this cut the coefficient of variation of the median iteration
// CPU time from 5.4% to 2.2% on bign-stream, by 1.2x to 1.3x on the
// others.

import (
	"fmt"
	"syscall"
	"unsafe"
)

const (
	calWords = 16 << 20 // int32 words: a 64 MiB chase buffer
	calSteps = 500000   // dependent loads per chase
	// calRefSeconds is the chase's CPU time in the reference state, about
	// its cost with the shared cache quiet; normalized CPU seconds are CPU
	// seconds in that state.
	calRefSeconds = 0.1
)

// calBytes is the chase buffer's resident size, which peak_rss_mb leaves
// out so that it reports the workload's own memory.
const calBytes = calWords * 4

var (
	calNext []int32
	calSink int32
)

// initCalibration builds one random cycle through the buffer (Sattolo's
// algorithm on a fixed xorshift stream), so a chase visits calSteps
// distinct, unpredictable addresses. The buffer is mapped outside the Go
// heap: on the heap it would raise the collector's heap goal and change
// how often the workload collects.
func initCalibration() error {
	if calNext != nil {
		return nil
	}
	mem, err := syscall.Mmap(-1, 0, calBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("mapping the calibration buffer: %w", err)
	}
	calNext = unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), calWords)
	for i := range calNext {
		calNext[i] = int32(i)
	}
	x := uint64(88172645463325252)
	for i := len(calNext) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		calNext[i], calNext[j] = calNext[j], calNext[i]
	}
	return nil
}

// calibrate times one chase in CPU seconds.
func calibrate() float64 {
	c0 := cpuSeconds()
	p := calSink
	for range calSteps {
		p = calNext[p]
	}
	calSink = p
	return cpuSeconds() - c0
}

// normalize scales each phase's CPU time to the reference state; cal
// holds one chase before each phase and one after the last.
func normalize(cpu, cal []float64) []float64 {
	out := make([]float64, len(cpu))
	for i, c := range cpu {
		out[i] = c * calRefSeconds / ((cal[i] + cal[i+1]) / 2)
	}
	return out
}
