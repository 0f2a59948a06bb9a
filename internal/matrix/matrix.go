// Package matrix provides LAPACK-layout (column-major) matrix views, the
// sub-matrix decomposition XKBLAS uses instead of a tile data layout, and
// ScaLAPACK-style 2D block-cyclic distribution maps.
//
// A view is the tuple (data, m, n, ld) of §III-A: m×n elements stored
// column-major with leading dimension ld. Sub-matrices share the same
// representation, so a matrix can be re-decomposed recursively without
// copies — the property that distinguishes the LAPACK layout from tile
// layouts (Chameleon, PLASMA) in the paper.
package matrix

import (
	"fmt"
	"math"
	"math/rand"
)

// WordSize is the element size in bytes (FP64 throughout, as the paper's
// experiments are all double precision).
const WordSize = 8

// View is a column-major matrix view. Data may be nil for metadata-only
// (timing mode) matrices; all shape operations still work.
type View struct {
	Data []float64
	M, N int
	LD   int
}

// New allocates an m×n column-major matrix with ld = m.
func New(m, n int) View {
	if m < 0 || n < 0 {
		panic(fmt.Sprintf("matrix: invalid dims %dx%d", m, n))
	}
	return View{Data: make([]float64, m*n), M: m, N: n, LD: max(m, 1)}
}

// NewShape returns a metadata-only view (nil data) of an m×n matrix. It is
// used in timing mode where paper-scale operands (up to ~57k²) would not fit
// in memory.
func NewShape(m, n int) View {
	return View{M: m, N: n, LD: max(m, 1)}
}

// FromSlice wraps existing column-major data with the given leading
// dimension. It validates that the slice is large enough.
func FromSlice(data []float64, m, n, ld int) View {
	if ld < m {
		panic(fmt.Sprintf("matrix: ld %d < m %d", ld, m))
	}
	if n > 0 && len(data) < ld*(n-1)+m {
		panic(fmt.Sprintf("matrix: slice len %d too small for %dx%d ld %d", len(data), m, n, ld))
	}
	return View{Data: data, M: m, N: n, LD: ld}
}

// HasData reports whether the view carries real elements (functional mode).
func (v View) HasData() bool { return v.Data != nil }

// At reads element (i,j). Panics on metadata-only views.
func (v View) At(i, j int) float64 { return v.Data[j*v.LD+i] }

// Set writes element (i,j).
func (v View) Set(i, j int, x float64) { v.Data[j*v.LD+i] = x }

// Add accumulates into element (i,j).
func (v View) Add(i, j int, x float64) { v.Data[j*v.LD+i] += x }

// Sub returns the m×n sub-view starting at (i,j). The sub-view aliases the
// parent's storage — no copy, the defining property of the LAPACK layout.
func (v View) Sub(i, j, m, n int) View {
	if i < 0 || j < 0 || m < 0 || n < 0 || i+m > v.M || j+n > v.N {
		panic(fmt.Sprintf("matrix: sub(%d,%d,%d,%d) out of %dx%d", i, j, m, n, v.M, v.N))
	}
	s := View{M: m, N: n, LD: v.LD}
	if v.Data != nil {
		if m == 0 || n == 0 {
			s.Data = []float64{}
		} else {
			s.Data = v.Data[j*v.LD+i:]
		}
	}
	return s
}

// Bytes reports the footprint of the view's elements (m·n·WordSize); the
// compacted dense-tile form a transfer moves, per §III-A.
func (v View) Bytes() int64 { return int64(v.M) * int64(v.N) * WordSize }

// Clone returns a dense (ld = m) deep copy of the view.
func (v View) Clone() View {
	c := New(v.M, v.N)
	if v.Data != nil {
		for j := 0; j < v.N; j++ {
			copy(c.Data[j*c.LD:j*c.LD+v.M], v.Data[j*v.LD:j*v.LD+v.M])
		}
	} else {
		c.Data = nil
	}
	return c
}

// CopyFrom copies src's elements into v; shapes must match.
func (v View) CopyFrom(src View) {
	if v.M != src.M || v.N != src.N {
		panic(fmt.Sprintf("matrix: copy shape mismatch %dx%d <- %dx%d", v.M, v.N, src.M, src.N))
	}
	if v.Data == nil || src.Data == nil {
		return
	}
	for j := 0; j < v.N; j++ {
		copy(v.Data[j*v.LD:j*v.LD+v.M], src.Data[j*src.LD:j*src.LD+v.M])
	}
}

// FillRandom fills the view with uniform values in [-1,1) from rng.
func (v View) FillRandom(rng *rand.Rand) {
	for j := 0; j < v.N; j++ {
		for i := 0; i < v.M; i++ {
			v.Set(i, j, 2*rng.Float64()-1)
		}
	}
}

// FillIdentityPlus fills the view with s·I plus uniform noise in [-1,1),
// producing well-conditioned triangular factors for TRSM tests.
func (v View) FillIdentityPlus(s float64, rng *rand.Rand) {
	for j := 0; j < v.N; j++ {
		for i := 0; i < v.M; i++ {
			x := 2*rng.Float64() - 1
			if i == j {
				x += s
			}
			v.Set(i, j, x)
		}
	}
}

// MaxAbsDiff reports the max-norm distance between two equally-shaped views.
func MaxAbsDiff(a, b View) float64 {
	if a.M != b.M || a.N != b.N {
		panic("matrix: MaxAbsDiff shape mismatch")
	}
	d := 0.0
	for j := 0; j < a.N; j++ {
		for i := 0; i < a.M; i++ {
			if x := math.Abs(a.At(i, j) - b.At(i, j)); x > d {
				d = x
			}
		}
	}
	return d
}

// Dist2D is a ScaLAPACK-style 2D block-cyclic distribution of a tile grid
// over a P×Q grid of devices, the layout of §IV-C. Block sizes (MB,NB) are
// in tiles: (1,1) maps adjacent tiles to different devices, as in the paper.
type Dist2D struct {
	P, Q   int // device grid
	MB, NB int // distribution block sizes, in tiles
}

// NewDist2D builds a block-cyclic distribution; the paper uses a (4,2) grid
// with (1,1) blocks on 8 GPUs.
func NewDist2D(p, q, mb, nb int) Dist2D {
	if p <= 0 || q <= 0 || mb <= 0 || nb <= 0 {
		panic("matrix: invalid 2D distribution parameters")
	}
	return Dist2D{P: p, Q: q, MB: mb, NB: nb}
}

// OwnerOf reports the device index (row-major in the P×Q grid) owning tile
// (i,j).
func (d Dist2D) OwnerOf(i, j int) int {
	pi := (i / d.MB) % d.P
	qj := (j / d.NB) % d.Q
	return pi*d.Q + qj
}

// Devices reports the total number of devices in the grid.
func (d Dist2D) Devices() int { return d.P * d.Q }

func ceilDiv(a, b int) int { return (a + b - 1) / b }
