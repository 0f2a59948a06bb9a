package xkrt

import (
	"fmt"
	"math/rand"
	"testing"

	"xkblas/internal/blasops"
	"xkblas/internal/cache"
	"xkblas/internal/device"
	"xkblas/internal/matrix"
	"xkblas/internal/policy"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// parityRecorder implements both xkrt.Observer and cache.Observer,
// serializing every kernel and transfer event into a canonical line so two
// runs can be compared timeline-against-timeline.
type parityRecorder struct {
	lines []string
}

func (p *parityRecorder) OnKernel(dev topology.DeviceID, name string, start, end sim.Time) {
	p.lines = append(p.lines, fmt.Sprintf("K dev=%d %s [%v %v]", dev, name, start, end))
}

func (p *parityRecorder) OnTransfer(kind cache.TransferKind, src, dst topology.DeviceID, bytes int64, start, end sim.Time) {
	p.lines = append(p.lines, fmt.Sprintf("T kind=%d %d->%d %dB [%v %v]", kind, src, dst, bytes, start, end))
}

// TestFunctionalTimingParity: functional mode moves and computes real tile
// data; timing mode only simulates. The two modes must still be the SAME
// simulation — identical kernel/transfer event timelines, identical policy
// decision counters, identical makespan — because data movement in
// functional mode rides on the timing model's events rather than driving
// its own. A divergence means functional execution perturbs scheduling.
func TestFunctionalTimingParity(t *testing.T) {
	run := func(functional bool) (lines []string, dec [2]interface{}, makespan sim.Time) {
		eng := sim.NewEngine()
		plat := device.NewPlatform(eng, topology.DGX1())
		rt := New(eng, plat, functional, Options{Window: 4, Policy: &policy.XKBlas})
		rec := &parityRecorder{}
		rt.Obs = rec
		rt.Cache.Observer = rec

		rng := rand.New(rand.NewSource(42))
		const nTiles, nTasks, nb = 8, 50, 16
		var ms []*Matrix
		for i := 0; i < nTiles; i++ {
			v := matrix.New(nb, nb)
			for x := range v.Data {
				v.Data[x] = float64(i + x)
			}
			ms = append(ms, rt.Register(v, nb))
		}
		for s := 0; s < nTasks; s++ {
			w := ms[rng.Intn(nTiles)]
			r := ms[rng.Intn(nTiles)]
			spec := KernelSpec{
				Routine: blasops.Gemm, M: nb, N: nb, K: nb,
				Flops: float64(10000 + rng.Intn(90000)),
				Body: func(bufs []matrix.View) {
					dst := bufs[0]
					for i := 0; i < nb; i++ {
						for j := 0; j < nb; j++ {
							dst.Set(i, j, dst.At(i, j)*0.5+1)
						}
					}
				},
			}
			rt.Submit("parity", spec, rng.Intn(3), RW(w.Tile(0, 0)), R(r.Tile(0, 0)))
		}
		for _, m := range ms {
			rt.SubmitFlush(m.Tile(0, 0))
		}
		makespan = rt.Barrier()
		if err := rt.Err(); err != nil {
			t.Fatalf("functional=%v: run failed: %v", functional, err)
		}
		return rec.lines, [2]interface{}{rt.Decisions(), rt.Stats()}, makespan
	}

	fLines, fDec, fTime := run(true)
	tLines, tDec, tTime := run(false)

	if fTime != tTime {
		t.Errorf("makespan diverged: functional %v vs timing %v", fTime, tTime)
	}
	if fDec != tDec {
		t.Errorf("decision/stat counters diverged:\nfunctional %+v\ntiming     %+v", fDec, tDec)
	}
	if len(fLines) == 0 {
		t.Fatal("no events recorded — observers not wired")
	}
	if len(fLines) != len(tLines) {
		t.Fatalf("event count diverged: functional %d vs timing %d", len(fLines), len(tLines))
	}
	for i := range fLines {
		if fLines[i] != tLines[i] {
			t.Fatalf("event %d diverged:\nfunctional %s\ntiming     %s", i, fLines[i], tLines[i])
		}
	}
}
