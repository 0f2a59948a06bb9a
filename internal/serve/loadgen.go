package serve

import (
	"fmt"
	"math"

	"xkblas/internal/blasops"
	"xkblas/internal/sim"
)

// Seeded load generation: open-loop arrival traces that replay bit for bit.
//
// The generator draws from its own splitmix64 stream — not math/rand — so a
// trace is a pure function of (seed, pattern, rate, request count, tenant
// count, mix) with no dependency on library internals. The serving
// simulation replays the trace deterministically, which is what makes two
// runs (at any host parallelism, with or without engine reuse) produce
// byte-identical latency histograms and rejection counts.

// rng is a splitmix64 generator: tiny, fast, and stable across Go versions.
type rng struct{ s uint64 }

func newRNG(seed int64) *rng {
	// Decorrelate small seeds (0, 1, 2, ...) with one mixing step.
	r := &rng{s: uint64(seed) ^ 0x9E3779B97F4A7C15}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1) with 53 random bits.
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential draw with the given mean.
func (r *rng) exp(mean float64) float64 { return -mean * math.Log1p(-r.float()) }

// intn returns a uniform draw in [0, n). The modulo bias is far below
// anything a latency percentile could resolve.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// RequestSpec is the shape of one tenant request: a square routine
// invocation at a given problem and tile size. It is the unit the demand
// table memoizes on and the batcher coalesces by.
type RequestSpec struct {
	Routine blasops.Routine
	N, NB   int
	// Count, when above 1, makes this a batched request: Count independent
	// N-square instances of the routine served as one unit through the
	// host/device dispatch path (baseline.RunBatched). 0 and 1 are plain
	// singletons. Batched requests bypass the fused-batching window — they
	// already are a batch.
	Count int
}

func (s RequestSpec) String() string {
	if s.Count > 1 {
		return fmt.Sprintf("%v/N%d/NB%d/x%d", s.Routine, s.N, s.NB, s.Count)
	}
	return fmt.Sprintf("%v/N%d/NB%d", s.Routine, s.N, s.NB)
}

// MixEntry weights one request shape in the generated traffic.
type MixEntry struct {
	Weight float64
	Spec   RequestSpec
}

// DefaultMix is the serving traffic shape: small-matrix requests dominate
// the request count (the KBLAS observation about real BLAS traffic) with a
// tail of large jobs that dominates the flops; TRSM/SYRK mix in dependency
// structure beside the GEMMs, and one batched-interface kind (a KBLAS-style
// batch of tiny GEMMs as a single request) exercises the host/device
// dispatch crossover.
func DefaultMix() []MixEntry {
	return []MixEntry{
		{28, RequestSpec{blasops.Gemm, 256, 256, 0}},
		{18, RequestSpec{blasops.Gemm, 512, 512, 0}},
		{8, RequestSpec{blasops.Trsm, 512, 512, 0}},
		{12, RequestSpec{blasops.Gemm, 1024, 512, 0}},
		{10, RequestSpec{blasops.Syrk, 2048, 1024, 0}},
		{14, RequestSpec{blasops.Gemm, 4096, 1024, 0}},
		{6, RequestSpec{blasops.Trsm, 4096, 1024, 0}},
		{4, RequestSpec{blasops.Gemm, 8192, 2048, 0}},
		{6, RequestSpec{blasops.Gemm, 256, 512, 32}},
	}
}

// ArrivalPattern selects the arrival process of the load generator.
type ArrivalPattern int

const (
	// Poisson is a stationary open-loop Poisson process at RatePerSec.
	Poisson ArrivalPattern = iota
	// Bursty is a two-state MMPP (Markov-modulated Poisson process): calm
	// stretches at a fraction of the base rate alternate with short bursts
	// at a multiple of it — the arrival shape that actually exercises
	// bounded queues and backpressure.
	Bursty
)

func (p ArrivalPattern) String() string {
	if p == Bursty {
		return "bursty"
	}
	return "poisson"
}

// ParseArrival maps a flag value onto an ArrivalPattern.
func ParseArrival(s string) (ArrivalPattern, error) {
	switch s {
	case "poisson":
		return Poisson, nil
	case "bursty":
		return Bursty, nil
	}
	return 0, fmt.Errorf("serve: unknown arrival pattern %q (want poisson or bursty)", s)
}

// MMPP shape of the Bursty pattern: mean dwell times and rate factors of
// the two states. The time-averaged rate stays within ~15%% of the base
// rate; what changes is its variance.
const (
	calmDwell  = 1.0  // seconds, mean
	burstDwell = 0.15 // seconds, mean
	calmFactor = 0.4  // × RatePerSec
	burstFac   = 6.0  // × RatePerSec
)

// Arrival is one trace entry: at the given virtual instant, the given
// tenant submits a request of the given shape.
type Arrival struct {
	At     sim.Time
	Tenant int
	Spec   RequestSpec
}

// GenerateTrace renders the seeded arrival trace of a config. The trace is
// the replayable input of the serving simulation: hand the same config to
// two processes and they draw identical arrivals. Arrival times never
// decrease, since each is the previous one plus a non-negative gap; Run
// streams the trace into its engine in order and relies on that.
func GenerateTrace(cfg *Config) []Arrival {
	r := newRNG(cfg.Seed)
	cum := make([]float64, len(cfg.Mix))
	total := 0.0
	for i, m := range cfg.Mix {
		total += m.Weight
		cum[i] = total
	}
	pickSpec := func() RequestSpec {
		x := r.float() * total
		for i, c := range cum {
			if x < c {
				return cfg.Mix[i].Spec
			}
		}
		return cfg.Mix[len(cfg.Mix)-1].Spec
	}

	t := 0.0
	burst := false
	dwellLeft := r.exp(calmDwell)
	nextGap := func() float64 {
		if cfg.Arrival == Poisson {
			return r.exp(1 / cfg.RatePerSec)
		}
		// MMPP: walk through state dwells until the next arrival lands
		// inside the current state.
		gap := 0.0
		for {
			rate := cfg.RatePerSec * calmFactor
			if burst {
				rate = cfg.RatePerSec * burstFac
			}
			d := r.exp(1 / rate)
			if d <= dwellLeft {
				dwellLeft -= d
				return gap + d
			}
			gap += dwellLeft
			burst = !burst
			if burst {
				dwellLeft = r.exp(burstDwell)
			} else {
				dwellLeft = r.exp(calmDwell)
			}
		}
	}

	out := make([]Arrival, cfg.Requests)
	for i := range out {
		t += nextGap()
		out[i] = Arrival{
			At:     sim.Time(t),
			Tenant: r.intn(cfg.Tenants),
			Spec:   pickSpec(),
		}
	}
	return out
}
