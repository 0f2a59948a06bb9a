package core

import (
	"testing"

	"xkblas/internal/matrix"
	"xkblas/internal/policy"
	"xkblas/internal/xkrt"
)

// TestTimingGemmAllocBudget is the transfer-path allocation gate behind
// `make bench-alloc`. A timing-mode GEMM at N = 16384, nb = 1024 (4096
// kernel tasks) plus MemoryCoherentAsync (256 flushes) on a reset handle
// moves every operand over host and peer links, chains optimistic hops and
// writes C back. Once the handle's pools are warm, transfer joins,
// under-transfer records, write-backs, waiters and kernel completions all
// reuse records, and timing mode builds no kernel bodies, so what is left
// per run is the matrix registrations and the barrier. The budget of 0.5
// objects per retired task keeps any per-transfer or per-task allocation
// out.
func TestTimingGemmAllocBudget(t *testing.T) {
	const n, nb, budget = 16384, 1024, 0.5
	shape := matrix.NewShape(n, n)
	for _, tc := range []struct {
		name string
		b    *policy.Bundle
	}{{"XKBlas", &policy.XKBlas}, {"XKBlasDMDAS", &policy.XKBlasDMDAS}} {
		t.Run(tc.name, func(t *testing.T) {
			opt := xkrt.DefaultOptions()
			opt.Policy = tc.b
			h := NewHandle(Config{TileSize: nb, Options: opt})
			run := func() {
				h.Reset()
				A, B, C := h.Register(shape), h.Register(shape), h.Register(shape)
				h.GemmAsync(NoTrans, NoTrans, 1, A, B, 1, C)
				h.MemoryCoherentAsync(C)
				h.Sync()
			}
			run()
			allocs := testing.AllocsPerRun(3, run)
			if err := h.RT.Err(); err != nil {
				t.Fatal(err)
			}
			tasks := h.RT.Stats().TasksRun
			if want := int64(16*16*16 + 16*16); tasks != want {
				t.Fatalf("%d tasks retired, want %d", tasks, want)
			}
			if st := h.RT.Cache.Stats(); st.H2DCount == 0 || st.D2HCount == 0 {
				t.Fatalf("GEMM moved no data (H2D %d, D2H %d): the gate would not see the transfer path", st.H2DCount, st.D2HCount)
			}
			per := allocs / float64(tasks)
			t.Logf("%.0f objects per run, %.3f per retired task", allocs, per)
			if per > budget {
				t.Fatalf("timing-mode GEMM allocates %.0f objects per run, %.2f per retired task (budget %.1f)", allocs, per, budget)
			}
		})
	}
}
