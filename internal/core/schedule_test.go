package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"xkblas/internal/matrix"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
	"xkblas/internal/xkrt"
)

var updateSchedule = flag.Bool("update", false, "rewrite testdata/schedule.golden from the current tile loops")

// kernelDigest hashes every retired kernel's device, routine and virtual
// interval in completion order, so a golden line changes whenever a tile
// loop submits a different task, in a different order, with different
// dimensions or flops.
type kernelDigest struct {
	n int
	h hash.Hash64
}

func (d *kernelDigest) OnKernel(dev topology.DeviceID, name string, start, end sim.Time) {
	d.n++
	fmt.Fprintf(d.h, "%d %s %s %s\n", dev, name,
		strconv.FormatFloat(float64(start), 'g', -1, 64), strconv.FormatFloat(float64(end), 'g', -1, 64))
}

type scheduleCase struct {
	name string
	run  func(h *Handle) *xkrt.Matrix // submits the call, returns its output
}

// scheduleCases covers each of the twelve routines across its whole flag
// space (side, uplo, diag and trans, ConjTrans included for the complex
// ones) with alpha ≠ 0, on tile grids with edge tiles in every dimension.
func scheduleCases() []scheduleCase {
	const m, n, k = 1200, 1000, 700 // nb = 384: 4×3 output tiles, all with partial edges
	real := func(h *Handle, r, c int) *xkrt.Matrix { return h.Register(matrix.NewShape(r, c)) }
	cplx := func(h *Handle, r, c int) *xkrt.Matrix { return h.RegisterZ(matrix.NewZShape(r, c)) }
	var cases []scheduleCase
	add := func(name string, run func(h *Handle) *xkrt.Matrix) {
		cases = append(cases, scheduleCase{name, run})
	}
	for _, cx := range []bool{false, true} {
		reg, prefix := real, ""
		trans := []Trans{NoTrans, Transpose}
		herm := []Trans{NoTrans, Transpose}
		if cx {
			reg, prefix = cplx, "Z"
			trans = []Trans{NoTrans, Transpose, ConjTrans}
			herm = []Trans{NoTrans, ConjTrans}
		}
		// op registers an operand whose op(·) is r×c.
		op := func(h *Handle, t Trans, r, c int) *xkrt.Matrix {
			if t != NoTrans {
				r, c = c, r
			}
			return reg(h, r, c)
		}
		for _, ta := range trans {
			for _, tb := range trans {
				add(fmt.Sprintf("%sGEMM %s%s", prefix, ta, tb), func(h *Handle) *xkrt.Matrix {
					a, b, c := op(h, ta, m, k), op(h, tb, k, n), reg(h, m, n)
					if cx {
						h.ZgemmAsync(ta, tb, complex(1.5, -0.5), a, b, complex(0.5, 0.25), c)
					} else {
						h.GemmAsync(ta, tb, 1.5, a, b, 0.5, c)
					}
					return c
				})
			}
		}
		for _, side := range []Side{Left, Right} {
			for _, uplo := range []Uplo{Lower, Upper} {
				add(fmt.Sprintf("%sSYMM %s%s", prefix, side, uplo), func(h *Handle) *xkrt.Matrix {
					dim := pick(side == Left, m, n)
					a, b, c := reg(h, dim, dim), reg(h, m, n), reg(h, m, n)
					if cx {
						h.ZhemmAsync(side, uplo, complex(1.5, -0.5), a, b, complex(0.5, 0.25), c)
					} else {
						h.SymmAsync(side, uplo, 1.5, a, b, 0.5, c)
					}
					return c
				})
			}
		}
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, tr := range herm {
				add(fmt.Sprintf("%sSYRK %s%s", prefix, uplo, tr), func(h *Handle) *xkrt.Matrix {
					a, c := op(h, tr, n, k), reg(h, n, n)
					if cx {
						h.ZherkAsync(uplo, tr, 1.5, a, 0.5, c)
					} else {
						h.SyrkAsync(uplo, tr, 1.5, a, 0.5, c)
					}
					return c
				})
				add(fmt.Sprintf("%sSYR2K %s%s", prefix, uplo, tr), func(h *Handle) *xkrt.Matrix {
					a, b, c := op(h, tr, n, k), op(h, tr, n, k), reg(h, n, n)
					if cx {
						h.Zher2kAsync(uplo, tr, complex(1.5, -0.5), a, b, 0.5, c)
					} else {
						h.Syr2kAsync(uplo, tr, 1.5, a, b, 0.5, c)
					}
					return c
				})
			}
		}
		for _, solve := range []bool{false, true} {
			routine := pick(solve, 1, 0)
			for _, side := range []Side{Left, Right} {
				for _, uplo := range []Uplo{Lower, Upper} {
					for _, ta := range trans {
						for _, diag := range []Diag{NonUnit, Unit} {
							name := fmt.Sprintf("%s%s %s%s%s%s", prefix, []string{"TRMM", "TRSM"}[routine], side, uplo, ta, diag)
							add(name, func(h *Handle) *xkrt.Matrix {
								dim := pick(side == Left, m, n)
								a, b := reg(h, dim, dim), reg(h, m, n)
								switch {
								case cx && solve:
									h.ZtrsmAsync(side, uplo, ta, diag, complex(1.5, -0.5), a, b)
								case cx:
									h.ZtrmmAsync(side, uplo, ta, diag, complex(1.5, -0.5), a, b)
								case solve:
									h.TrsmAsync(side, uplo, ta, diag, 1.5, a, b)
								default:
									h.TrmmAsync(side, uplo, ta, diag, 1.5, a, b)
								}
								return b
							})
						}
					}
				}
			}
		}
	}
	return cases
}

// TestScheduleGolden locks the task stream of every tile loop: each case
// runs one routine in timing mode on the DGX-1, flushes its output and
// records the virtual elapsed time, the tasks retired, the cache stats,
// the decision counters and a digest of every kernel's device, routine
// and interval. The lines must match testdata/schedule.golden byte for
// byte. Only a deliberate change to what the loops submit regenerates it,
// with `go test ./internal/core -run ScheduleGolden -update`.
func TestScheduleGolden(t *testing.T) {
	var got bytes.Buffer
	for _, tc := range scheduleCases() {
		h := NewHandle(Config{TileSize: 384})
		dig := &kernelDigest{h: fnv.New64a()}
		h.RT.Obs = dig
		h.MemoryCoherentAsync(tc.run(h))
		elapsed := h.Sync()
		if err := h.RT.Err(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&got, "%s: t=%s tasks=%d kernels=%d digest=%016x\n  cache %+v\n  decisions %+v\n",
			tc.name, strconv.FormatFloat(float64(elapsed), 'g', -1, 64), h.RT.Stats().TasksRun,
			dig.n, dig.h.Sum64(), h.RT.Cache.Stats(), h.RT.Decisions())
	}
	path := filepath.Join("testdata", "schedule.golden")
	if *updateSchedule {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		w, g := bytes.Split(want, []byte("\n")), bytes.Split(got.Bytes(), []byte("\n"))
		for i := 0; i < len(w) || i < len(g); i++ {
			if i >= len(w) || i >= len(g) || !bytes.Equal(w[i], g[i]) {
				var wl, gl []byte
				if i < len(w) {
					wl = w[i]
				}
				if i < len(g) {
					gl = g[i]
				}
				t.Fatalf("%s drifted at line %d:\n  golden: %s\n  got:    %s", path, i+1, wl, gl)
			}
		}
	}
}
