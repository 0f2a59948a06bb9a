// Package xkrt is the XKaapi-like runtime system underneath XKBLAS: a
// dependent-task dataflow model (§III) with per-tile R/W/RW access modes,
// an owner-computes mapping refined by locality-aware work stealing (or,
// alternatively, a StarPU-style DMDAS scheduler for the ablation), a
// per-device software-pipelined task window that overlaps transfers with
// kernels, and — the paper's contribution — a transfer-source selector with
// the topology-aware and optimistic device-to-device heuristics.
package xkrt

import (
	"fmt"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/matrix"
	"xkblas/internal/policy"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// Mode is a task's access mode to one tile, the dataflow annotation the
// dependency builder consumes.
type Mode int

const (
	// Read declares an input tile.
	Read Mode = iota
	// Write declares an output tile whose previous contents are ignored.
	Write
	// ReadWrite declares an accumulation tile (read then overwritten).
	ReadWrite
)

func (m Mode) String() string {
	switch m {
	case Read:
		return "R"
	case Write:
		return "W"
	case ReadWrite:
		return "RW"
	default:
		return "?"
	}
}

// reads reports whether the mode needs valid data before the kernel runs.
func (m Mode) reads() bool { return m == Read || m == ReadWrite }

// writes reports whether the mode produces a new version of the tile.
func (m Mode) writes() bool { return m == Write || m == ReadWrite }

// Access pairs a tile with its mode.
type Access struct {
	Tile *cache.Tile
	Mode Mode
}

// R builds a read access.
func R(t *cache.Tile) Access { return Access{Tile: t, Mode: Read} }

// W builds a write access.
func W(t *cache.Tile) Access { return Access{Tile: t, Mode: Write} }

// RW builds a read-write access.
func RW(t *cache.Tile) Access { return Access{Tile: t, Mode: ReadWrite} }

// KernelSpec describes the GPU kernel a compute task launches. Flops and
// the dimensions feed the timing model; Body, when non-nil (functional
// mode), performs the real arithmetic on the dense device tile buffers in
// access order.
type KernelSpec struct {
	Routine blasops.Routine
	M, N, K int
	Flops   float64
	Body    func(bufs []matrix.View)
}

type taskKind int

const (
	kindCompute  taskKind = iota
	kindFlush             // make the host copy of a tile coherent (lazy D2H)
	kindPrefetch          // push a tile to a device (2D block-cyclic distribute)
)

type taskState int

const (
	stateSubmitted taskState = iota
	stateQueued
	stateFetching
	stateRunning
	stateDone
)

// Task is one node of the dataflow graph. Tasks come from the runtime's
// free list and are recycled when they complete, so callers must not retain
// the *Task returned by Submit past the task's completion (Barrier).
type Task struct {
	rt       *Runtime
	id       int
	name     string
	kind     taskKind
	acc      []Access
	accStore [4]Access // inline storage: level-3 BLAS tasks touch ≤ 4 tiles
	kern     KernelSpec
	priority int

	preds int
	succs []*Task

	dev          topology.DeviceID // prefetch target / assigned device
	state        taskState
	wired        bool // dependencies linked into the tables
	admitted     bool // inside the stream admission window
	stallCounted bool // already charged one window stall
	pendingFetch int
	estExec      sim.Time // DMDAS bookkeeping
	readyAt      sim.Time // instant the task entered a ready queue
}

// ID reports the task's submission index.
func (t *Task) ID() int { return t.id }

// Name reports the task's diagnostic name. Coherency and distribution tasks
// derive it on demand: the hot submission path never builds strings.
func (t *Task) Name() string {
	switch t.kind {
	case kindFlush:
		return "flush " + t.acc[0].Tile.Key.String()
	case kindPrefetch:
		return "prefetch " + t.acc[0].Tile.Key.String()
	default:
		return t.name
	}
}

func (t *Task) String() string {
	return fmt.Sprintf("#%d %s %s", t.id, t.Name(), t.state.str())
}

// JobDone implements sim.JobDone: the task itself is its kernel-completion
// callback, so launching a kernel allocates no closure.
func (t *Task) JobDone(start, end sim.Time) { t.rt.completeKernel(t, start, end) }

func (s taskState) str() string {
	switch s {
	case stateSubmitted:
		return "submitted"
	case stateQueued:
		return "queued"
	case stateFetching:
		return "fetching"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	default:
		return "?"
	}
}

// writtenTile returns the first tile the task writes, which owner-computes
// mapping keys on; nil for read-only tasks.
func (t *Task) writtenTile() *cache.Tile {
	for _, a := range t.acc {
		if a.Mode.writes() {
			return a.Tile
		}
	}
	return nil
}

// NumAccesses implements policy.SchedTask.
func (t *Task) NumAccesses() int { return len(t.acc) }

// AccessTile implements policy.SchedTask.
func (t *Task) AccessTile(i int) policy.TileView { return t.acc[i].Tile }

// AccessReads implements policy.SchedTask.
func (t *Task) AccessReads(i int) bool { return t.acc[i].Mode.reads() }

// OutputTile implements policy.SchedTask.
func (t *Task) OutputTile() (policy.TileView, bool) {
	if w := t.writtenTile(); w != nil {
		return w, true
	}
	return nil, false
}

// Matrix couples a registered host matrix with its tiling and cache tiles.
type Matrix struct {
	ID   cache.MatrixID
	View matrix.View
	Til  matrix.RectTiling

	tiles [][]*cache.Tile
}

// Register tracks an m×n host matrix decomposed into nb×nb tiles. The host
// view may be metadata-only (timing mode).
func (rt *Runtime) Register(v matrix.View, nb int) *Matrix {
	return rt.RegisterRect(v, nb, nb)
}

// RegisterRect tracks a host matrix decomposed into mb×nb tiles. The
// rectangular form carries interleaved complex matrices, whose logical
// nb×nb complex tiles are (2·nb)×nb float64 tiles.
func (rt *Runtime) RegisterRect(v matrix.View, mb, nb int) *Matrix {
	id := rt.Cache.NewMatrixID()
	til := matrix.NewRectTiling(v.M, v.N, mb, nb)
	m := &Matrix{ID: id, View: v, Til: til}
	m.tiles = make([][]*cache.Tile, til.Rows())
	for i := range m.tiles {
		m.tiles[i] = make([]*cache.Tile, til.Cols())
		for j := range m.tiles[i] {
			m.tiles[i][j] = rt.Cache.NewTile(
				cache.TileKey{Mat: id, I: i, J: j},
				til.TileView(v, i, j),
			)
		}
	}
	return m
}

// Tile returns the cache record of tile (i,j).
func (m *Matrix) Tile(i, j int) *cache.Tile { return m.tiles[i][j] }

// Sub returns a tile-aligned sub-matrix covering rows×cols tiles starting
// at tile (i,j). The sub-matrix shares the parent's cache tiles, so calls
// on overlapping sub-matrices are ordered through the same dependency
// tables — the dynamic recursive sub-partitioning the LAPACK layout
// affords (§III).
func (m *Matrix) Sub(i, j, rows, cols int) *Matrix {
	if i < 0 || j < 0 || rows <= 0 || cols <= 0 || i+rows > m.Rows() || j+cols > m.Cols() {
		panic(fmt.Sprintf("xkrt: sub-matrix (%d,%d,%d,%d) out of %dx%d tile grid",
			i, j, rows, cols, m.Rows(), m.Cols()))
	}
	rowStart := i * m.Til.MB
	colStart := j * m.Til.NB
	rowEnd := (i + rows) * m.Til.MB
	if rowEnd > m.View.M {
		rowEnd = m.View.M
	}
	colEnd := (j + cols) * m.Til.NB
	if colEnd > m.View.N {
		colEnd = m.View.N
	}
	sub := &Matrix{
		ID:   m.ID,
		View: m.View.Sub(rowStart, colStart, rowEnd-rowStart, colEnd-colStart),
		Til:  matrix.NewRectTiling(rowEnd-rowStart, colEnd-colStart, m.Til.MB, m.Til.NB),
	}
	sub.tiles = make([][]*cache.Tile, rows)
	for r := 0; r < rows; r++ {
		sub.tiles[r] = m.tiles[i+r][j : j+cols : j+cols]
	}
	return sub
}

// Rows reports the tile-grid row count.
func (m *Matrix) Rows() int { return m.Til.Rows() }

// Cols reports the tile-grid column count.
func (m *Matrix) Cols() int { return m.Til.Cols() }

// EachTile visits all tiles in row-major order.
func (m *Matrix) EachTile(fn func(i, j int, t *cache.Tile)) {
	for i := range m.tiles {
		for j := range m.tiles[i] {
			fn(i, j, m.tiles[i][j])
		}
	}
}
