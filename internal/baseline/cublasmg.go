package baseline

import (
	"fmt"

	"xkblas/internal/blasops"
	"xkblas/internal/policy"
	"xkblas/internal/xkrt"
)

// cublasMGLib models the cuBLAS-MG early-access library (§II-A): GEMM only,
// each matrix distributed over the devices in a 2D block-cyclic layout.
// For the paper's data-on-host methodology the distribution of the operands
// and the collection of the result are part of the call — and of the
// measured time — which is why cuBLAS-MG trails XKBlas by ~13% despite an
// efficient distributed kernel phase.
type cublasMGLib struct {
	std StdLib
}

// CuBLASMG returns the cuBLAS-MG model. Peer transfers between the
// block-cyclic homes use NVLink when available but without topology
// ranking or forwarding heuristics.
func CuBLASMG() Library {
	return cublasMGLib{std: StdLib{
		LibName:  "cuBLAS-MG",
		Routines: gemmOnly,
		Opts:     xkrt.Options{Window: 3, Policy: &policy.NoHeuristicNoTopo},
	}}
}

func (l cublasMGLib) Name() string { return l.std.LibName }

func (l cublasMGLib) Supports(r blasops.Routine) bool { return l.std.Supports(r) }

// Run is the standard body with the 2D distribution inside the call on
// data-on-host, too.
func (l cublasMGLib) Run(req Request) Result {
	if req.Routine != blasops.Gemm {
		return Result{Err: fmt.Errorf("cuBLAS-MG only implements GEMM")}
	}
	return l.std.Call(req, standard(req, true))
}
