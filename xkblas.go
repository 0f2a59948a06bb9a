// Package xkblas is a Go reproduction of XKBLAS, the multi-GPU level-3
// BLAS library of Gautier & Lima ("Evaluation of two topology-aware
// heuristics on level-3 BLAS library for multi-GPU platforms", PAW-ATM @
// SC 2021), together with the simulated NVIDIA DGX-1 platform, the XKaapi-
// like dataflow runtime and the competitor libraries it is evaluated
// against.
//
// The package exposes three layers:
//
//   - the asynchronous XKBLAS API (Handle): tiled BLAS-3 over LAPACK-layout
//     matrices with explicit, lazy coherency — the paper's native API;
//   - synchronous drop-in wrappers (Dgemm, Dtrsm, ...) for legacy code;
//   - the experiment harness (see internal/bench and cmd/xkbench) that
//     regenerates every table and figure of the paper.
//
// Because Go cannot drive real GPUs, the platform is a deterministic
// discrete-event model of the DGX-1 (topology, NVLink/PCIe bandwidths,
// V100 kernel timing). In functional mode all arithmetic is real and
// verified; in timing mode paper-scale problems run as metadata-only
// simulations. See DESIGN.md for the substitution argument.
package xkblas

import (
	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/core"
	"xkblas/internal/matrix"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
	"xkblas/internal/trace"
	"xkblas/internal/xkrt"
)

// Core API aliases. Aliases to internal types are intentional: they give
// external importers usable names while keeping the implementation
// internal.
type (
	// Handle is an XKBLAS library context bound to one simulated platform.
	Handle = core.Handle
	// Config assembles a Handle.
	Config = core.Config
	// Matrix is a registered LAPACK-layout matrix.
	Matrix = xkrt.Matrix
	// Tile is the software-cache record of one matrix tile.
	Tile = cache.Tile
	// ZMat is a complex matrix over interleaved storage.
	ZMat = matrix.ZMat
	// View is a column-major matrix view (data, m, n, ld).
	View = matrix.View
	// Options are runtime options: the required policy bundle, which
	// fixes the heuristics, scheduler and evictor, plus the pipeline and
	// stream windows. Start from DefaultOptions.
	Options = xkrt.Options
	// Platform describes a multi-GPU node's interconnect topology.
	Platform = topology.Platform
	// Time is virtual time in seconds.
	Time = sim.Time

	// Trans, Side, Uplo and Diag are the standard BLAS flags.
	Trans = blasops.Trans
	Side  = blasops.Side
	Uplo  = blasops.Uplo
	Diag  = blasops.Diag
)

// BLAS flag constants.
const (
	NoTrans   = blasops.NoTrans
	Transpose = blasops.Transpose
	Left      = blasops.Left
	Right     = blasops.Right
	Lower     = blasops.Lower
	Upper     = blasops.Upper
	NonUnit   = blasops.NonUnit
	Unit      = blasops.Unit
)

// New creates an XKBLAS context. The zero Config selects the 8-GPU DGX-1,
// 2048 tiles, timing mode, and both heuristics enabled.
func New(cfg Config) *Handle { return core.NewHandle(cfg) }

// DGX1 returns the paper's 8-GPU platform model.
func DGX1() *Platform { return topology.DGX1() }

// DGX1WithGPUs returns a DGX-1 restricted to its first n GPUs.
func DGX1WithGPUs(n int) *Platform { return topology.DGX1WithGPUs(n) }

// DGX2 returns a 16-GPU NVSwitch platform (flat all-to-all NVLink fabric).
func DGX2() *Platform { return topology.DGX2() }

// DGX2WithGPUs returns a DGX-2 restricted to its first n GPUs.
func DGX2WithGPUs(n int) *Platform { return topology.DGX2WithGPUs(n) }

// SummitNode returns a 6-GPU POWER9-style node with NVLink host links.
func SummitNode() *Platform { return topology.SummitNode() }

// DefaultOptions returns the full-featured XKBLAS runtime configuration
// (topology-aware + optimistic heuristics, work stealing, window 4).
func DefaultOptions() Options { return xkrt.DefaultOptions() }

// NewMatrix allocates an m×n column-major matrix with real storage.
func NewMatrix(m, n int) View { return matrix.New(m, n) }

// NewShape returns a metadata-only m×n view for timing-mode runs.
func NewShape(m, n int) View { return matrix.NewShape(m, n) }

// FromSlice wraps existing column-major data with leading dimension ld.
func FromSlice(data []float64, m, n, ld int) View { return matrix.FromSlice(data, m, n, ld) }

// ConjTrans selects op(A) = Aᴴ in the complex routines.
const ConjTrans = blasops.ConjTrans

// NewZMat allocates an m×n complex matrix (interleaved storage) for the
// ZGEMM/HEMM/HERK/HER2K routines completing the paper's "9 standard BLAS
// subroutines".
func NewZMat(m, n int) ZMat { return matrix.NewZ(m, n) }

// NewZShape returns a metadata-only complex matrix for timing-mode runs.
func NewZShape(m, n int) ZMat { return matrix.NewZShape(m, n) }

// TraceRecorder collects per-GPU timelines of kernels and memcpy
// operations (HtoD / DtoH / PtoP) for the §IV-E style analyses: cumulative
// breakdowns, per-GPU occupancy and ASCII Gantt charts.
type TraceRecorder = trace.Recorder

// AttachTrace wires a fresh recorder into the handle's runtime; every
// subsequent transfer and kernel execution is recorded.
func AttachTrace(h *Handle) *TraceRecorder {
	rec := trace.NewRecorder()
	h.RT.Cache.Observer = rec
	h.RT.Obs = rec
	return rec
}
