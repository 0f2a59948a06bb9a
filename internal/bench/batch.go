package bench

import (
	"fmt"
	"io"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
	"xkblas/internal/topology"
)

// BatchSweep is the batched small-BLAS dispatch experiment (xkbench -exp
// batch): uniform batches of small GEMM instances swept over batch count
// and instance size on at least two platforms, with three legs per point —
// device-only, host-only, and the model-derived crossover routing. The
// per-platform dispatch threshold is printed from the model itself, so the
// output shows it differing with fabric design (PCIe-host DGX-1 vs
// NVLink-host Summit), and the crossover leg's makespan can be compared
// against the better forced leg at every point. forceCount/forceN (from
// -batch-count/-batch-n) pin the sweep to a single batch count or instance
// size; 0 keeps the default grid. Not part of -exp all: output would shift
// the golden quick-sweep transcript.
func BatchSweep(w io.Writer, cfg Config, quick bool, forceCount, forceN int) {
	counts := []int{8, 32, 128}
	sizes := []int{32, 64, 128, 256, 512, 1024}
	if quick {
		counts = []int{8, 32}
		sizes = []int{64, 256, 1024}
	}
	if forceCount > 0 {
		counts = []int{forceCount}
	}
	if forceN > 0 {
		sizes = []int{forceN}
	}
	plats := []*topology.Platform{topology.DGX1(), topology.SummitNode()}
	if cfg.Platform != nil {
		// An explicit platform joins the two reference fabrics as a third
		// section, like the summit experiment does.
		plats = append(plats, cfg.Platform)
	}
	fmt.Fprintln(w, "Extension — batched small-GEMM host/device dispatch (data-on-host, makespan GF/s)")

	type cell struct {
		count, n int
		legs     [3]baseline.Result
	}
	lib := baseline.XKBlas().(*baseline.StdLib)
	modes := [3]baseline.DispatchMode{baseline.DispatchDeviceOnly, baseline.DispatchHostOnly, baseline.DispatchAuto}
	for _, plat := range plats {
		dm := baseline.NewDispatchModel(plat)
		dm.NB = 512 // the sweep's tile size, so printed thresholds match the runs
		fmt.Fprintf(w, "\n%s — %d lanes, aggregate H2D %.1f GB/s, D2H %.1f GB/s\n",
			plat.Name, dm.GPULanes, dm.AggUpGBs, dm.AggDownGBs)
		for _, c := range counts {
			fmt.Fprintf(w, "  model crossover (GEMM, count %d): n >= %d runs on the device\n",
				c, dm.CrossoverN(blasops.Gemm, c))
		}
		cells := make([]cell, 0, len(counts)*len(sizes))
		for _, c := range counts {
			for _, n := range sizes {
				cells = append(cells, cell{count: c, n: n})
			}
		}
		// One leg per (count, size, mode): every leg is a single
		// deterministic simulated run, so the grid can fan out across
		// workers and still print bit-identical tables at any -parallel.
		runLeg := func(ci, li int) {
			cl := &cells[ci]
			req := baseline.Request{
				Routine: blasops.Gemm, N: cl.n, NB: 512, Platform: plat,
				Scenario: baseline.DataOnHost, Check: cfg.Check, Ctx: cfg.Ctx,
			}
			cl.legs[li] = lib.RunBatched(req,
				blasops.UniformBatch(blasops.Gemm, cl.count, cl.n, cl.n, cl.n), modes[li])
		}
		if cfg.Parallel > 1 {
			wp := newWorkerPool(cfg.Parallel)
			for ci := range cells {
				for li := range modes {
					wp.Submit(func() { runLeg(ci, li) })
				}
			}
			wp.Wait()
		} else {
			for ci := range cells {
				for li := range modes {
					runLeg(ci, li)
				}
			}
		}
		fmt.Fprintf(w, "  %-7s %-7s %13s %13s %15s %13s\n",
			"count", "n", "device GF/s", "host GF/s", "crossover GF/s", "routed d/h")
		for i := range cells {
			cl := &cells[i]
			if err := firstErr(cl.legs[:]); err != nil {
				fmt.Fprintf(w, "  %-7d %-7d ERROR: %v\n", cl.count, cl.n, err)
				continue
			}
			d := cl.legs[2].Decisions
			fmt.Fprintf(w, "  %-7d %-7d %13.1f %13.1f %15.1f %8d/%d\n",
				cl.count, cl.n, cl.legs[0].GFlops, cl.legs[1].GFlops, cl.legs[2].GFlops,
				d.DispatchDevice, d.DispatchHost)
		}
	}
}

// firstErr reports the first failed leg of a batch cell.
func firstErr(legs []baseline.Result) error {
	for _, r := range legs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
