package bench

import (
	"sync"

	"xkblas/internal/baseline"
	"xkblas/internal/blasops"
	"xkblas/internal/topology"
)

// LeafMemo shares leaf results across the sweeps of one invocation. A leaf
// is one Library.Run of the harness, and it is a function of its key
// alone: Fig. 3, Table II and Fig. 5 all measure the same XKBlas points,
// so the later sweeps read the first one's leaves instead of simulating
// them again. Keys repeat only across sweeps that run one after another
// (within one sweep every leaf key is distinct), so a miss simply
// simulates the leaf and stores it; a cancelled leaf is never stored.
// Memoized results are shared read-only: callers must not mutate a
// Result's Metrics snapshot.
//
// The caller owns the table (cmd/xkbench builds one per invocation and
// hands it to every driver through Config.Memo). A nil *LeafMemo
// simulates every leaf, which is what a benchmark that repeats one sweep
// needs.
type LeafMemo struct {
	mu     sync.Mutex
	leaves map[leafKey]baseline.Result
}

// NewLeafMemo returns an empty memo.
func NewLeafMemo() *LeafMemo {
	return &LeafMemo{leaves: make(map[leafKey]baseline.Result)}
}

// leafKey is everything a leaf's result depends on. The library is keyed
// by name, which is sound because every library name maps to one
// configuration (TestLeafMemoLibraryNamesUnique). The noise seed stands
// for the repetition: it folds in rep, N, NB and the seed rule, so two
// seed rules cannot alias one key. The platform is keyed by pointer,
// nil being the default DGX-1.
type leafKey struct {
	lib            string
	routine        blasops.Routine
	n, nb          int
	seed           int64
	scenario       baseline.Scenario
	platform       *topology.Platform
	noise          float64
	window         int
	check, metrics bool
}

// leaf returns the result of the leaf lib runs for req, calling run to
// simulate it unless the memo already holds it.
func (m *LeafMemo) leaf(lib string, req baseline.Request, run func() baseline.Result) baseline.Result {
	if m == nil {
		return run()
	}
	key := leafKey{
		lib: lib, routine: req.Routine, n: req.N, nb: req.NB, seed: req.NoiseSeed,
		scenario: req.Scenario, platform: req.Platform, noise: req.NoiseAmp,
		window: req.StreamWindow, check: req.Check, metrics: req.Metrics,
	}
	m.mu.Lock()
	res, ok := m.leaves[key]
	m.mu.Unlock()
	if ok {
		return res
	}
	res = run()
	if !leafCanceled(res.Err) {
		m.mu.Lock()
		m.leaves[key] = res
		m.mu.Unlock()
	}
	return res
}
