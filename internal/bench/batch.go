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
// the golden quick-sweep transcript. A cell row's values are the three
// legs' GF/s, then the crossover leg's device and host dispatch counts.
func BatchSweep(w io.Writer, cfg Config, quick bool, forceCount, forceN int) []Row {
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
	rp := report{w: w}
	rp.line("Extension — batched small-GEMM host/device dispatch (data-on-host, makespan GF/s)")

	type cell struct {
		count, n int
		legs     [3]baseline.Result
	}
	lib := baseline.XKBlas().(*baseline.StdLib)
	modes := [3]baseline.DispatchMode{baseline.DispatchDeviceOnly, baseline.DispatchHostOnly, baseline.DispatchAuto}
	for _, plat := range plats {
		dm := baseline.NewDispatchModel(plat)
		dm.NB = 512 // the sweep's tile size, so printed thresholds match the runs
		rp.line("")
		rp.line(fmt.Sprintf("%s — %d lanes, aggregate H2D %.1f GB/s, D2H %.1f GB/s",
			plat.Name, dm.GPULanes, dm.AggUpGBs, dm.AggDownGBs))
		for _, c := range counts {
			rp.line(fmt.Sprintf("  model crossover (GEMM, count %d): n >= %d runs on the device",
				c, dm.CrossoverN(blasops.Gemm, c)))
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
		forEach(cfg.Parallel, len(cells)*len(modes), func(i int) {
			cl, li := &cells[i/len(modes)], i%len(modes)
			req := baseline.Request{
				Routine: blasops.Gemm, N: cl.n, NB: 512, Platform: plat,
				Scenario: baseline.DataOnHost, Check: cfg.Check, Ctx: cfg.Ctx,
			}
			cl.legs[li] = lib.RunBatched(req,
				blasops.UniformBatch(blasops.Gemm, cl.count, cl.n, cl.n, cl.n), modes[li])
		})
		rp.line(fmt.Sprintf("  %-7s %-7s %13s %13s %15s %13s",
			"count", "n", "device GF/s", "host GF/s", "crossover GF/s", "routed d/h"))
		for i := range cells {
			cl := &cells[i]
			d := cl.legs[2].Decisions
			rp.add(Row{Label: fmt.Sprintf("  %-7d %-7d", cl.count, cl.n), Format: " %13.1f %13.1f %15.1f %8.0f/%.0f",
				Values: []float64{cl.legs[0].GFlops, cl.legs[1].GFlops, cl.legs[2].GFlops,
					float64(d.DispatchDevice), float64(d.DispatchHost)},
				Err: firstErr(cl.legs[0].Err, cl.legs[1].Err, cl.legs[2].Err)})
		}
	}
	return rp.rows
}
