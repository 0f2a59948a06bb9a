package xkrt

import (
	"fmt"
	"reflect"
	"testing"

	"xkblas/internal/blasops"
	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// The admission-window contract (DESIGN.md §10): a streamed run — the
// generator blocking inside Submit while completed tasks retire behind the
// window — is bit-identical to its whole-graph reference (Runtime.whole),
// which materializes the full DAG and applies the same window during
// execution. Both modes admit every task at the same virtual instant, so
// kernel/transfer timelines, decision counters, stall counts, metrics and
// (in functional mode) the numerical result must agree byte for byte at
// every window size.

// streamRun executes a tiled GEMM (nt×nt×nt chains with interleaved
// per-tile flush — the streaming builder's shape) and returns everything
// observable about the run.
type streamRun struct {
	lines    []string
	makespan sim.Time
	dec      interface{}
	stats    RuntimeStats
	metrics  string
	liveMax  int
	stalls   int64
	cData    []float64
}

func runStreamGemm(t *testing.T, functional bool, window int, whole bool) streamRun {
	t.Helper()
	const nt, nb = 4, 16
	eng := sim.NewEngine()
	plat := device.NewPlatform(eng, topology.DGX1())
	opt := DefaultOptions()
	opt.StreamWindow = window
	rt := New(eng, plat, functional, opt)
	rt.whole = whole
	rec := &parityRecorder{}
	rt.Obs = rec
	rt.Cache.Observer = rec

	mk := func(seed float64) *Matrix {
		v := matrix.New(nt*nb, nt*nb)
		for x := range v.Data {
			v.Data[x] = seed + float64(x%97)
		}
		return rt.Register(v, nb)
	}
	a, b, c := mk(1), mk(2), mk(3)
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			ct := c.Tile(i, j)
			for k := 0; k < nt; k++ {
				at, bt := a.Tile(i, k), b.Tile(k, j)
				spec := KernelSpec{
					Routine: blasops.Gemm, M: nb, N: nb, K: nb,
					Flops: 2 * float64(nb) * float64(nb) * float64(nb),
					Body: func(bufs []matrix.View) {
						// C += A·B on the dense device buffers.
						cv, av, bv := bufs[0], bufs[1], bufs[2]
						for x := 0; x < nb; x++ {
							for y := 0; y < nb; y++ {
								s := cv.At(x, y)
								for z := 0; z < nb; z++ {
									s += av.At(x, z) * bv.At(z, y)
								}
								cv.Set(x, y, s)
							}
						}
					},
				}
				rt.Submit("sgemm", spec, 0, RW(ct), R(at), R(bt))
			}
			rt.SubmitFlush(ct)
		}
	}
	makespan := rt.Barrier()
	if err := rt.Err(); err != nil {
		t.Fatalf("functional=%v window=%d whole=%v: %v", functional, window, whole, err)
	}
	snap := rt.CollectMetrics()
	out := streamRun{
		lines:    rec.lines,
		makespan: makespan,
		dec:      rt.Decisions(),
		stats:    rt.Stats(),
		metrics:  fmt.Sprintf("%+v", snap),
		liveMax:  rt.TasksLiveMax(),
		stalls:   rt.WindowStalls(),
	}
	if functional {
		out.cData = append([]float64(nil), c.View.Data...)
	}
	return out
}

// TestStreamLazyWholeParity locks the bit-identity of lazy streaming
// against the whole-graph reference at every window size, in both timing
// and functional mode. Windows: 1 (fully serial admission), 4, one row of
// chains (nt·nt = 16), and 0 (unbounded, where both modes are the
// historical submission path).
func TestStreamLazyWholeParity(t *testing.T) {
	for _, functional := range []bool{false, true} {
		for _, window := range []int{1, 4, 16, 0} {
			lazy := runStreamGemm(t, functional, window, false)
			whole := runStreamGemm(t, functional, window, true)
			tag := func(what string) string {
				return what + " diverged"
			}
			if lazy.makespan != whole.makespan {
				t.Errorf("functional=%v window=%d: %s: lazy %v vs whole %v",
					functional, window, tag("makespan"), lazy.makespan, whole.makespan)
			}
			if !reflect.DeepEqual(lazy.dec, whole.dec) {
				t.Errorf("functional=%v window=%d: %s:\nlazy  %+v\nwhole %+v",
					functional, window, tag("decision counters"), lazy.dec, whole.dec)
			}
			if lazy.stats != whole.stats {
				t.Errorf("functional=%v window=%d: %s:\nlazy  %+v\nwhole %+v",
					functional, window, tag("runtime stats"), lazy.stats, whole.stats)
			}
			if lazy.metrics != whole.metrics {
				t.Errorf("functional=%v window=%d: %s", functional, window, tag("metrics snapshot"))
			}
			if lazy.stalls != whole.stalls {
				t.Errorf("functional=%v window=%d: %s: lazy %d vs whole %d",
					functional, window, tag("window stalls"), lazy.stalls, whole.stalls)
			}
			if !reflect.DeepEqual(lazy.lines, whole.lines) {
				n := len(lazy.lines)
				if len(whole.lines) < n {
					n = len(whole.lines)
				}
				for i := 0; i < n; i++ {
					if lazy.lines[i] != whole.lines[i] {
						t.Errorf("functional=%v window=%d: first timeline divergence at event %d:\nlazy  %s\nwhole %s",
							functional, window, i, lazy.lines[i], whole.lines[i])
						break
					}
				}
				if len(lazy.lines) != len(whole.lines) {
					t.Errorf("functional=%v window=%d: event count %d vs %d",
						functional, window, len(lazy.lines), len(whole.lines))
				}
			}
			if functional && !reflect.DeepEqual(lazy.cData, whole.cData) {
				t.Errorf("window=%d: functional result data diverged between admission modes", window)
			}
			if window > 0 && lazy.liveMax > window {
				t.Errorf("window=%d: peak live tasks %d exceeds the window", window, lazy.liveMax)
			}
		}
	}
}

// TestStreamResultIndependentOfWindow locks the numerical half of the
// contract: the window reorders *scheduling*, never *dataflow*, so the
// functional result must be byte-identical at every window size — including
// the unbounded reference.
func TestStreamResultIndependentOfWindow(t *testing.T) {
	ref := runStreamGemm(t, true, 0, false)
	for _, window := range []int{1, 4, 16} {
		got := runStreamGemm(t, true, window, false)
		if !reflect.DeepEqual(ref.cData, got.cData) {
			t.Errorf("window=%d: functional result differs from whole-graph reference", window)
		}
	}
}
