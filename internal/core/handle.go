// Package core is XKBLAS: asynchronous tiled level-3 BLAS over the LAPACK
// matrix layout, built on the xkrt (XKaapi-like) runtime. The numerical
// algorithms are the tile algorithms of PLASMA/Chameleon (§III) with the
// paper's differences: sub-matrix views instead of tile storage, no
// implicit copy-back (coherency is an explicit asynchronous operation), and
// an asynchronous-only native API that composes kernels without
// synchronization points (§IV-F).
package core

import (
	"fmt"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/check"
	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
	"xkblas/internal/xkrt"
)

// Re-exported flag types so callers need only this package.
type (
	Trans = blasops.Trans
	Side  = blasops.Side
	Uplo  = blasops.Uplo
	Diag  = blasops.Diag
)

// Flag constants re-exported from blasops.
const (
	NoTrans   = blasops.NoTrans
	Transpose = blasops.Transpose
	ConjTrans = blasops.ConjTrans
	Left      = blasops.Left
	Right     = blasops.Right
	Lower     = blasops.Lower
	Upper     = blasops.Upper
	NonUnit   = blasops.NonUnit
	Unit      = blasops.Unit
)

// Config assembles a Handle.
type Config struct {
	// Platform defaults to the 8-GPU DGX-1.
	Platform *topology.Platform
	// TileSize (NB) defaults to 2048, the paper's most frequent best
	// block size.
	TileSize int
	// Functional enables real-data mode.
	Functional bool
	// Options are the runtime options: the policy bundle (heuristics,
	// scheduler, evictor) plus the pipeline and stream windows. The zero
	// value means xkrt.DefaultOptions(), the full XKBLAS configuration.
	Options xkrt.Options
	// Check attaches the strict coherence-invariant auditor
	// (internal/check) to the runtime: every cache and scheduler state
	// transition is verified and the first violation panics, which the
	// measurement harness converts into a per-point error.
	Check bool
}

// Handle is an XKBLAS library context bound to one simulated platform.
type Handle struct {
	Eng  *sim.Engine
	Plat *device.Platform
	RT   *xkrt.Runtime
	NB   int
}

// NewHandle builds a library context.
func NewHandle(cfg Config) *Handle {
	if cfg.Platform == nil {
		cfg.Platform = topology.DGX1()
	}
	if cfg.TileSize == 0 {
		cfg.TileSize = 2048
	}
	zero := xkrt.Options{}
	if cfg.Options == zero {
		cfg.Options = xkrt.DefaultOptions()
	}
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, cfg.Platform)
	rt := xkrt.New(eng, plat, cfg.Functional, cfg.Options)
	if cfg.Check {
		rt.AttachAuditor(check.New(true))
	}
	return &Handle{Eng: eng, Plat: plat, RT: rt, NB: cfg.TileSize}
}

// Reset returns the handle's engine, platform and runtime to their freshly
// built state so one context can be reused across repetitions instead of
// being rebuilt. Every pool and arena (engine events, server completion
// records, tasks, tiles, replicas) keeps its capacity, and a reset handle
// reproduces the virtual timeline of a fresh one bit for bit. Run-scoped
// attachments are dropped: re-attach an auditor and re-arm kernel noise
// per repetition. A memory reservation (Platform.ReserveMemory) survives:
// Reset keeps pool capacity and merely empties it.
func (h *Handle) Reset() {
	h.Eng.Reset()
	h.Plat.Reset()
	h.RT.Reset()
}

// Register tracks a host matrix (LAPACK layout) for use in BLAS calls,
// decomposed into NB×NB sub-matrix views.
func (h *Handle) Register(v matrix.View) *xkrt.Matrix {
	return h.RT.Register(v, h.NB)
}

// RegisterZ tracks a complex host matrix decomposed into NB×NB complex
// tiles ((2·NB)×NB interleaved float64 tiles).
func (h *Handle) RegisterZ(z matrix.ZMat) *xkrt.Matrix {
	return h.RT.RegisterRect(z.V, 2*h.NB, h.NB)
}

// MemoryCoherentAsync schedules write-back of every tile of M whose only
// valid copy lives on a GPU. It is the explicit, lazy coherency point of
// the XKBLAS API (xkblas_memory_coherent_async): transfers start as soon as
// each tile's last writer finishes, overlapping remaining computation.
func (h *Handle) MemoryCoherentAsync(m *xkrt.Matrix) {
	m.EachTile(func(_, _ int, t *cache.Tile) {
		h.RT.SubmitFlush(t)
	})
}

// PinAsync charges the one-time cost of page-locking a matrix's host
// memory with the driver (cudaHostRegister). All libraries in the paper
// pin operands before the timed section (§IV-A: "the time to page lock the
// memory was ignored in all experiments ... applications have the capacity
// to amortize this cost"); calling PinAsync inside a timed interval shows
// what ignoring it hides. done fires when registration completes; Sync
// also waits for it.
func (h *Handle) PinAsync(m *xkrt.Matrix) {
	h.RT.PendingExternal(1)
	h.Plat.Pinner.Submit(float64(m.View.Bytes()), 0, sim.JobFunc(func(_, _ sim.Time) {
		h.RT.PendingExternal(-1)
	}))
}

// SubMatrix returns a tile-aligned sub-matrix of rows×cols tiles starting
// at tile (i,j), sharing the parent's cache state (recursive
// sub-partitioning over the LAPACK layout, §III).
func (h *Handle) SubMatrix(m *xkrt.Matrix, i, j, rows, cols int) *xkrt.Matrix {
	return m.Sub(i, j, rows, cols)
}

// FlushTileAsync schedules write-back of a single tile once its last
// writer completes — the finest-grained coherency point (panel
// factorizations flush only the diagonal tile).
func (h *Handle) FlushTileAsync(t *cache.Tile) {
	h.RT.SubmitFlush(t)
}

// InvalidateTile drops every device replica of a tile whose host copy was
// modified by the application (e.g. a host-side panel factorization); the
// caller must ensure no operation on the tile is in flight (Sync first).
func (h *Handle) InvalidateTile(t *cache.Tile) {
	h.RT.Cache.Invalidate(t)
}

// Distribute2DBlockCyclicAsync stages M's tiles onto the GPUs following a
// P×Q block-cyclic map with (1,1) blocks and records each tile's
// owner-computes home (xkblas_distribute_2Dblock_cyclic_async, §IV-C).
func (h *Handle) Distribute2DBlockCyclicAsync(m *xkrt.Matrix, p, q int) {
	dist := matrix.NewDist2D(p, q, 1, 1)
	n := len(h.Plat.GPUs)
	m.EachTile(func(i, j int, t *cache.Tile) {
		h.RT.SubmitPrefetch(t, topology.DeviceID(dist.OwnerOf(i, j)%n))
	})
}

// Sync waits for every submitted operation and returns the virtual time.
func (h *Handle) Sync() sim.Time { return h.RT.Barrier() }

// Now reports the current virtual time, for interval measurements.
func (h *Handle) Now() sim.Time { return h.Eng.Now() }

// stopped reports whether the run failed or its engine was stopped
// (Runtime.Cancel). Each tile loop polls it once per output tile or panel
// and stops generating: a stopped run admits nothing, and without a stream
// window the rest of the DAG would otherwise be built for nothing. Only
// Cancel stops a runtime's engine, so clean runs never see it.
func (h *Handle) stopped() bool { return h.RT.Err() != nil || h.Eng.Stopped() }

// requireSquareGrid panics unless the matrix is logically square (the
// triangular-operand precondition).
func requireSquareGrid[T elem](name string, m *xkrt.Matrix) {
	if r := logicalRows[T](m.View.M); r != m.View.N {
		panic(fmt.Sprintf("core: %s requires a square matrix, got %dx%d", name, r, m.View.N))
	}
}

// storedLower reports whether tile (i,k) of a uplo-triangular tile grid is
// inside the stored triangle (strictly, for off-diagonal use).
func stored(uplo Uplo, i, k int) bool {
	if uplo == Lower {
		return i > k
	}
	return i < k
}
