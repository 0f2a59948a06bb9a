// Package device instantiates a topology.Platform on the discrete-event
// simulator: each GPU gets a kernel stream, DMA copy engines and a memory
// pool; each NVLink, PCIe switch uplink and inter-socket link becomes a
// contended FIFO resource. A calibrated timing model converts BLAS tile
// kernels into virtual V100 execution times.
package device

import (
	"fmt"
	"math"
	"math/rand"

	"xkblas/internal/blasops"
	"xkblas/internal/sim"
)

// KernelModel converts tile-kernel shapes into virtual GPU execution times.
//
// time = flops / (PeakFP64 · eff) + LaunchOverhead
//
// with eff = MaxEff · RoutineEff[r] · b/(b+HalfDim), b = min(m,n,k): cuBLAS
// kernels approach peak only when every dimension is large enough to fill
// the SMs, which is why the paper sweeps tile sizes {1024,2048,4096}.
type KernelModel struct {
	PeakFP64       float64
	LaunchOverhead sim.Time
	MaxEff         float64
	HalfDim        float64
	RoutineEff     map[blasops.Routine]float64

	// NoiseAmp, when positive, applies a deterministic pseudo-random
	// multiplicative jitter of ±NoiseAmp to kernel times, modelling run-to-
	// run variance so the harness' confidence intervals are non-degenerate.
	NoiseAmp float64
	rng      *rand.Rand
}

// DefaultKernelModel returns the V100 model calibrated so that large-tile
// DGEMM sustains ≈92% of the 7.8 TFlop/s FP64 peak (the paper measures
// 56.9 TFlop/s on 8 GPUs = 91.2% of aggregate peak).
func DefaultKernelModel(peak float64) *KernelModel {
	return &KernelModel{
		PeakFP64:       peak,
		LaunchOverhead: sim.Microseconds(8),
		MaxEff:         0.975,
		HalfDim:        96,
		RoutineEff: map[blasops.Routine]float64{
			blasops.Gemm:  1.00,
			blasops.Symm:  0.96,
			blasops.Syr2k: 0.96,
			blasops.Syrk:  0.94,
			blasops.Trmm:  0.92,
			blasops.Trsm:  0.45, // triangular-solve tile kernels are far from peak
			// Complex kernels reach a slightly higher fraction of peak
			// (higher arithmetic intensity per byte).
			blasops.Zgemm: 1.00,
			blasops.Hemm:  0.96,
			blasops.Her2k: 0.96,
			blasops.Herk:  0.94,
			// Unblocked diagonal factorizations are latency-bound.
			blasops.Potrf: 0.30,
			blasops.Getrf: 0.30,
		},
	}
}

// DefaultHostModel returns the host CPU compute model used by the batched
// host/device dispatch path: a dual-socket Broadwell-class Xeon node (the
// DGX-1 host) peaks around 1.4 TFlop/s FP64 — roughly 5.6× below a single
// V100 — but a host BLAS call has no DMA transfer to pay and a far smaller
// launch overhead, and small cache-resident matrices approach the
// achievable rate quickly (HalfDim 16 vs the GPU's 96). The crossover
// between this model and the device kernel+transfer model is what the
// dispatch layer computes per platform.
func DefaultHostModel() *KernelModel {
	return &KernelModel{
		PeakFP64:       1.4e12,
		LaunchOverhead: sim.Microseconds(1),
		MaxEff:         0.90,
		HalfDim:        16,
		RoutineEff: map[blasops.Routine]float64{
			blasops.Gemm:  1.00,
			blasops.Symm:  0.95,
			blasops.Syr2k: 0.95,
			blasops.Syrk:  0.93,
			blasops.Trmm:  0.90,
			// Host TRSM stays much closer to GEMM rate than the GPU's
			// latency-bound triangular-solve tile kernels.
			blasops.Trsm:  0.80,
			blasops.Zgemm: 1.00,
			blasops.Hemm:  0.95,
			blasops.Her2k: 0.95,
			blasops.Herk:  0.93,
			blasops.Potrf: 0.50,
			blasops.Getrf: 0.50,
		},
	}
}

// Eff reports the efficiency factor for a tile kernel of routine r with the
// given dimensions.
func (m *KernelModel) Eff(r blasops.Routine, mm, nn, kk int) float64 {
	b := float64(minDim(mm, nn, kk))
	eff := m.MaxEff * b / (b + m.HalfDim)
	if re, ok := m.RoutineEff[r]; ok {
		eff *= re
	}
	if eff <= 0 || math.IsNaN(eff) {
		panic(fmt.Sprintf("device: bad efficiency %g for %v(%d,%d,%d)", eff, r, mm, nn, kk))
	}
	return eff
}

// EffectiveFlops converts a tile kernel into "peak-rate flops": the job size
// to submit to a kernel server whose rate is PeakFP64.
func (m *KernelModel) EffectiveFlops(r blasops.Routine, flops float64, mm, nn, kk int) float64 {
	f := flops / m.Eff(r, mm, nn, kk)
	if m.NoiseAmp > 0 && m.rng != nil {
		f *= 1 + m.NoiseAmp*(2*m.rng.Float64()-1)
	}
	return f
}

// Time reports the modelled execution time of a tile kernel, excluding
// queueing behind other kernels.
func (m *KernelModel) Time(r blasops.Routine, flops float64, mm, nn, kk int) sim.Time {
	return m.LaunchOverhead + sim.Time(flops/(m.Eff(r, mm, nn, kk)*m.PeakFP64))
}

// EnableNoise turns on deterministic jitter with the given amplitude and
// seed; a non-positive amplitude turns it off. A model that already has a
// generator reseeds it in place, which restarts it exactly as a fresh
// generator of that seed would, so a recycled model jitters like a new one.
func (m *KernelModel) EnableNoise(amp float64, seed int64) {
	m.NoiseAmp = amp
	switch {
	case amp <= 0:
	case m.rng == nil:
		m.rng = rand.New(rand.NewSource(seed))
	default:
		m.rng.Seed(seed)
	}
}

func minDim(a, b, c int) int {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	if m < 1 {
		m = 1
	}
	return m
}

// MemPool tracks device memory occupancy. Allocation never blocks: callers
// (the software cache) are responsible for evicting replicas when Alloc
// reports insufficient space.
type MemPool struct {
	capacity int64
	used     int64
}

// NewMemPool creates a pool with the given capacity in bytes.
func NewMemPool(capacity int64) *MemPool { return &MemPool{capacity: capacity} }

// Alloc reserves n bytes, reporting whether the reservation fit.
func (p *MemPool) Alloc(n int64) bool {
	if n < 0 {
		panic("device: negative allocation")
	}
	if p.used+n > p.capacity {
		return false
	}
	p.used += n
	return true
}

// Free releases n bytes.
func (p *MemPool) Free(n int64) {
	if n < 0 || p.used-n < 0 {
		panic(fmt.Sprintf("device: bad free %d (used %d)", n, p.used))
	}
	p.used -= n
}

// Used reports the bytes currently allocated.
func (p *MemPool) Used() int64 { return p.used }

// Capacity reports the pool size.
func (p *MemPool) Capacity() int64 { return p.capacity }

// Available reports the free bytes.
func (p *MemPool) Available() int64 { return p.capacity - p.used }

// Reset drops every outstanding reservation, returning the pool to empty.
// Used by platform reuse across repetitions after the owning cache has
// discarded all replicas.
func (p *MemPool) Reset() { p.used = 0 }
