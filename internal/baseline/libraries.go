package baseline

import (
	"xkblas/internal/blasops"
	"xkblas/internal/policy"
	"xkblas/internal/xkrt"
)

// The library roster of Fig. 5. Public-code routine coverage follows the
// paper: BLASX and DPLASMA expose GEMM only, cuBLAS-MG only implements
// GEMM, the rest cover all six.
//
// Each library is a declarative policy bundle — one value per decision axis
// (transfer source, scheduler, eviction) — plus the mechanism knobs the
// runtime keeps (pipeline window, owner grid). The bundles are immutable
// and shared across the concurrent runs of a sweep.

var allSix = blasops.All()
var gemmOnly = []blasops.Routine{blasops.Gemm}

// XKBlas returns the full library: topology-ranked sources with optimistic
// device-to-device forwarding over XKaapi work stealing, deep pipeline.
func XKBlas() Library {
	return &StdLib{
		LibName:  "XKBlas",
		Routines: allSix,
		Opts:     xkrt.Options{Window: 4, Policy: &policy.XKBlas},
	}
}

// XKBlasNoHeuristic disables the optimistic device-to-device forwarding
// only ("XKBlas, no heuristic" in Fig. 3).
func XKBlasNoHeuristic() Library {
	return &StdLib{
		LibName:  "XKBlas, no heuristic",
		Routines: allSix,
		Opts:     xkrt.Options{Window: 4, Policy: &policy.NoHeuristic},
	}
}

// XKBlasNoHeuristicNoTopo disables both contributions ("XKBlas, no
// heuristic, no topo" in Fig. 3): sources among valid replicas are chosen
// without regard to link performance.
func XKBlasNoHeuristicNoTopo() Library {
	return &StdLib{
		LibName:  "XKBlas, no heuristic, no topo",
		Routines: allSix,
		Opts:     xkrt.Options{Window: 4, Policy: &policy.NoHeuristicNoTopo},
	}
}

// CuBLASXT models cuBLAS-XT: synchronous per-call semantics, all traffic
// through the host PCIe links (no peer transfers), static round-robin tile
// assignment with no dynamic migration, streaming eviction (operand tiles
// pipe through fixed staging buffers, so every tile read crosses PCIe again
// — the HtoD-dominated profile of Fig. 6), shallow stream pipelining. Its
// composition semantics round-trip results between calls.
func CuBLASXT() Library {
	return &StdLib{
		LibName:  "cuBLAS-XT",
		Routines: allSix,
		Opts: xkrt.Options{
			Window: 2,
			Policy: &policy.Bundle{
				Source:    policy.HostOnly{},
				Scheduler: policy.WorkStealing{NoSteal: true},
				Evictor:   policy.Streaming{},
			},
		},
		InterCallBarrier: true,
	}
}

// chameleonBundle is the Chameleon 1.0 / StarPU 1.3.5 policy: DMDAS
// data-aware sorted scheduling, peer transfers allowed (any valid source,
// no topology ranking), no optimistic forwarding (§IV-A).
var chameleonBundle = policy.Bundle{
	Source:    policy.LowestID{},
	Scheduler: policy.DMDAS{},
	Evictor:   policy.LRUReadOnlyFirst{},
}

// ChameleonTile models Chameleon over StarPU with tile storage. Composition
// suffers the coherency synchronisation of Fig. 9.
func ChameleonTile() Library {
	return &StdLib{
		LibName:          "Chameleon Tile",
		Routines:         allSix,
		Opts:             xkrt.Options{Window: 2, Policy: &chameleonBundle},
		InterCallBarrier: true,
	}
}

// ChameleonLAPACK is Chameleon Tile plus the host-side LAPACK↔tile layout
// conversion of every operand and result, the dominant cost the paper
// reports for this variant (§IV-D).
func ChameleonLAPACK() Library {
	return &StdLib{
		LibName:          "Chameleon LAPACK",
		Routines:         allSix,
		Opts:             xkrt.Options{Window: 2, Policy: &chameleonBundle},
		ConvertGBs:       8, // single-socket repack bandwidth
		InterCallBarrier: true,
	}
}

// BLASX models the public BLASX code: GEMM only, dynamic tile queue, and a
// two-level software cache that only exploits peer GPUs behind the same
// PCIe switch (§II-C). Its duplicated cache tiers waste device memory,
// reproducing the allocation failures Fig. 5 reports past N ≈ 45000.
func BLASX() Library {
	return &StdLib{
		LibName:  "BLASX",
		Routines: gemmOnly,
		Opts: xkrt.Options{
			Window: 3,
			Policy: &policy.Bundle{
				Source:    policy.SameSwitch{Base: policy.LowestID{}},
				Scheduler: policy.WorkStealing{},
				Evictor:   policy.LRUReadOnlyFirst{},
			},
		},
		MemReserve: 0.45,
	}
}

// DPLASMA models the DPLASMA/PaRSEC GEMM: hierarchical DAG scheduling with
// peer transfers but no topology ranking or optimistic forwarding.
func DPLASMA() Library {
	return &StdLib{
		LibName:  "DPLASMA",
		Routines: gemmOnly,
		Opts: xkrt.Options{
			Window: 3,
			Policy: &policy.Bundle{
				Source:    policy.LowestID{},
				Scheduler: policy.DMDAS{},
				Evictor:   policy.LRUReadOnlyFirst{},
			},
		},
	}
}
