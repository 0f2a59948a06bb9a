package baseline

import (
	"testing"

	"xkblas/internal/blasops"
	"xkblas/internal/topology"
)

func batchReq(nb int) Request {
	return Request{Routine: blasops.Gemm, N: nb, NB: nb, Scenario: DataOnHost}
}

// TestDispatchCrossoverDiffersAcrossPlatforms pins that the crossover
// threshold is platform-derived, not a constant: Summit's NVLink-attached
// host uploads far faster than the DGX-1's PCIe host links, so the device
// path overtakes the host at a smaller instance size there.
func TestDispatchCrossoverDiffersAcrossPlatforms(t *testing.T) {
	dgx := NewDispatchModel(topology.DGX1())
	summit := NewDispatchModel(topology.SummitNode())
	const count = 64
	cd := dgx.CrossoverN(blasops.Gemm, count)
	cs := summit.CrossoverN(blasops.Gemm, count)
	t.Logf("crossover n: dgx1=%d summit=%d", cd, cs)
	if cd <= 1 {
		t.Fatalf("dgx1 has no host region (crossover %d); the dispatch would never use the host", cd)
	}
	if cd > 8192 {
		t.Fatalf("dgx1 device path never overtakes the host (crossover %d)", cd)
	}
	if cs >= cd {
		t.Fatalf("summit crossover %d not below dgx1's %d — NVLink host links must shift the threshold down", cs, cd)
	}
}

// TestDispatchCrossoverWindowCapped pins that with the executing tile size
// known, small batches cross over later than lane-filling ones: sub-tile
// instances are single tasks, eager admission fills one device's pipeline
// window before the next sees work, and the model caps their lane count at
// ceil(count/Window).
func TestDispatchCrossoverWindowCapped(t *testing.T) {
	m := NewDispatchModel(topology.DGX1())
	m.NB = 512
	if m.Window <= 1 {
		t.Fatalf("default dispatch window = %d, want the runtime's pipeline depth > 1", m.Window)
	}
	small := m.CrossoverN(blasops.Gemm, 8)
	full := m.CrossoverN(blasops.Gemm, 8*m.Window*2)
	t.Logf("crossover n on dgx1 at NB 512: count 8 = %d, lane-filling = %d", small, full)
	if small <= full {
		t.Fatalf("window-capped count-8 crossover %d not above lane-filling crossover %d", small, full)
	}
	if small > m.NB+1 {
		t.Fatalf("count-8 crossover %d beyond the first multi-tile size %d — the cap must end with the single-task regime", small, m.NB+1)
	}
}

// TestDispatchModelRegions pins the qualitative shape of the decision rule:
// tiny instances go to the host, large ones to the device, and the
// aggregate host bandwidths are positive.
func TestDispatchModelRegions(t *testing.T) {
	m := NewDispatchModel(topology.DGX1())
	if m.AggUpGBs <= 0 || m.AggDownGBs <= 0 {
		t.Fatalf("aggregate host bandwidths must be positive, got up=%g down=%g", m.AggUpGBs, m.AggDownGBs)
	}
	const count = 64
	tiny := blasops.BatchInstance{M: 8, N: 8, K: 8}
	big := blasops.BatchInstance{M: 2048, N: 2048, K: 2048}
	if !m.UseHost(blasops.Gemm, tiny, count) {
		t.Fatalf("8x8 GEMM instances should dispatch to the host")
	}
	if m.UseHost(blasops.Gemm, big, count) {
		t.Fatalf("2048-cube GEMM instances should dispatch to the device")
	}
	if m.UseHost(blasops.Potrf, tiny, count) {
		t.Fatalf("routines outside the batched operand table must never route to the host")
	}
}

// TestRunBatchedDeviceOnlySingletonMatchesRun pins that the device leg of a
// batch of one square instance is exactly the standard data-on-host
// protocol.
func TestRunBatchedDeviceOnlySingletonMatchesRun(t *testing.T) {
	lib := XKBlas().(*StdLib)
	req := Request{Routine: blasops.Gemm, N: 1024, NB: 512, Scenario: DataOnHost}
	solo := lib.Run(req)
	if solo.Err != nil {
		t.Fatal(solo.Err)
	}
	batched := lib.RunBatched(req, blasops.UniformBatch(blasops.Gemm, 1, 1024, 1024, 1024), DispatchDeviceOnly)
	if batched.Err != nil {
		t.Fatal(batched.Err)
	}
	if solo.Elapsed != batched.Elapsed {
		t.Fatalf("device-only batch of 1 took %v, standalone run %v — must be identical", batched.Elapsed, solo.Elapsed)
	}
}

// TestRunBatchedDispatchCounts pins the per-instance decision accounting:
// every instance is counted exactly once, forced legs count on one side
// only, and the crossover leg splits a mixed-size batch.
func TestRunBatchedDispatchCounts(t *testing.T) {
	lib := XKBlas().(*StdLib)
	mixed := blasops.Batch{Routine: blasops.Gemm}
	for i := 0; i < 8; i++ {
		mixed.Instances = append(mixed.Instances, blasops.BatchInstance{M: 16, N: 16, K: 16})
		mixed.Instances = append(mixed.Instances, blasops.BatchInstance{M: 1024, N: 1024, K: 1024})
	}
	for _, tc := range []struct {
		mode      DispatchMode
		dev, host int64
	}{
		{DispatchDeviceOnly, 16, 0},
		{DispatchHostOnly, 0, 16},
		{DispatchAuto, 8, 8},
	} {
		res := lib.RunBatched(batchReq(512), mixed, tc.mode)
		if res.Err != nil {
			t.Fatalf("%v: %v", tc.mode, res.Err)
		}
		d := res.Decisions
		if d.DispatchDevice != tc.dev || d.DispatchHost != tc.host {
			t.Fatalf("%v: dispatch counts dev=%d host=%d, want dev=%d host=%d",
				tc.mode, d.DispatchDevice, d.DispatchHost, tc.dev, tc.host)
		}
	}
}

// TestRunBatchedCrossoverParity is the acceptance bound: at every swept
// instance size the crossover leg must be within 5% of the better of the
// two forced legs — the model-derived routing never loses meaningfully to
// either pure strategy.
func TestRunBatchedCrossoverParity(t *testing.T) {
	lib := XKBlas().(*StdLib)
	const count = 24
	for _, n := range []int{16, 64, 256, 1024} {
		batch := blasops.UniformBatch(blasops.Gemm, count, n, n, n)
		req := batchReq(512)
		dev := lib.RunBatched(req, batch, DispatchDeviceOnly)
		host := lib.RunBatched(req, batch, DispatchHostOnly)
		auto := lib.RunBatched(req, batch, DispatchAuto)
		for _, r := range []Result{dev, host, auto} {
			if r.Err != nil {
				t.Fatalf("n=%d: %v", n, r.Err)
			}
		}
		best := dev.Elapsed
		if host.Elapsed < best {
			best = host.Elapsed
		}
		if float64(auto.Elapsed) > 1.05*float64(best) {
			t.Fatalf("n=%d count=%d: crossover %v vs best forced leg %v (device %v, host %v) — over the 5%% bound",
				n, count, auto.Elapsed, best, dev.Elapsed, host.Elapsed)
		}
	}
}

// TestRunBatchedDeterministic pins bit-identical batched timelines across a
// rerun and a recycled pooled handle.
func TestRunBatchedDeterministic(t *testing.T) {
	lib := XKBlas().(*StdLib)
	batch := blasops.UniformBatch(blasops.Gemm, 12, 96, 96, 96)
	base := lib.RunBatched(batchReq(512), batch, DispatchAuto)
	if base.Err != nil {
		t.Fatal(base.Err)
	}
	pool := NewHandlePool()
	req := batchReq(512)
	req.Handles = pool
	warm := lib.RunBatched(req, batch, DispatchAuto) // populates the pool
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	pooled := lib.RunBatched(req, batch, DispatchAuto) // recycled handle
	if pooled.Err != nil {
		t.Fatal(pooled.Err)
	}
	for name, r := range map[string]Result{"rerun": warm, "pooled": pooled} {
		if r.Elapsed != base.Elapsed || r.GFlops != base.GFlops || r.Decisions != base.Decisions {
			t.Fatalf("%s diverged: elapsed %v vs %v, gflops %v vs %v, decisions %+v vs %+v",
				name, r.Elapsed, base.Elapsed, r.GFlops, base.GFlops, r.Decisions, base.Decisions)
		}
	}
}

// TestRunBatchedMetrics pins that dispatch decisions surface in the metrics
// snapshot and the host BLAS server publishes utilization.
func TestRunBatchedMetrics(t *testing.T) {
	lib := XKBlas().(*StdLib)
	req := batchReq(512)
	req.Metrics = true
	mixed := blasops.Batch{Routine: blasops.Gemm}
	for i := 0; i < 8; i++ {
		mixed.Instances = append(mixed.Instances, blasops.BatchInstance{M: 16, N: 16, K: 16})
		mixed.Instances = append(mixed.Instances, blasops.BatchInstance{M: 1024, N: 1024, K: 1024})
	}
	res := lib.RunBatched(req, mixed, DispatchAuto)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Metrics == nil {
		t.Fatal("no metrics snapshot")
	}
	m := map[string]float64{}
	for _, s := range res.Metrics {
		m[s.Name] = float64(s.Int) + s.Float
	}
	if m["dispatch.host"] != 8 || m["dispatch.device"] != 8 {
		t.Fatalf("dispatch metrics host=%v device=%v, want 8/8", m["dispatch.host"], m["dispatch.device"])
	}
	if m["res.host.blas.served"] != 8 {
		t.Fatalf("host BLAS server served %v calls, want 8", m["res.host.blas.served"])
	}
}

// TestRunBatchedRejects pins the guard surface of the batched entry point.
func TestRunBatchedRejects(t *testing.T) {
	lib := XKBlas().(*StdLib)
	if res := lib.RunBatched(batchReq(512), blasops.Batch{Routine: blasops.Gemm}, DispatchAuto); res.Err == nil {
		t.Fatal("empty batch accepted")
	}
	req := batchReq(512)
	req.Scenario = DataOnDevice
	if res := lib.RunBatched(req, blasops.UniformBatch(blasops.Gemm, 2, 64, 64, 64), DispatchAuto); res.Err == nil {
		t.Fatal("data-on-device batch accepted")
	}
	if res := lib.RunBatched(batchReq(512), blasops.UniformBatch(blasops.Potrf, 2, 64, 64, 64), DispatchAuto); res.Err == nil {
		t.Fatal("factorization routine accepted by batched path")
	}
}
