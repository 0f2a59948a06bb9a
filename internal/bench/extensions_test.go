package bench

import (
	"testing"

	"xkblas/internal/blasops"
)

func TestExtensionExperimentsRun(t *testing.T) {
	// Each extension must complete and measure every row at quick scale;
	// they are part of the cmd/xkbench surface.
	for _, name := range []string{"scale", "summit", "pinning", "hermitian", "factor"} {
		rows := quickRows()[name]
		if len(measured(rows)) == 0 {
			t.Errorf("%s measured nothing", name)
		}
		for _, r := range rows {
			if r.Err != nil {
				t.Errorf("%s reported errors:\n%s", name, dump(rows))
				break
			}
		}
	}
}

// platformGain is the total-gain column of the summit table row whose
// platform label starts with prefix.
func platformGain(t *testing.T, rows []Row, prefix string) float64 {
	t.Helper()
	m := rowsWithPrefix(measured(rows), prefix)
	if len(m) != 1 || m[0].Err != nil || len(m[0].Values) != 3 {
		t.Fatalf("no measured %q row:\n%s", prefix, dump(rows))
	}
	return m[0].Values[2]
}

func TestSummitPredictionHolds(t *testing.T) {
	rows := quickRows()["summit"]
	// The DGX-1 gain must dominate Summit's (§III-C).
	dgx := platformGain(t, rows, "DGX-1 (")
	summit := platformGain(t, rows, "Summit")
	if dgx <= summit {
		t.Fatalf("§III-C prediction violated: DGX-1 gain %.1f%% <= Summit gain %.1f%%\n%s",
			dgx, summit, dump(rows))
	}
	if dgx < 5 {
		t.Fatalf("optimistic heuristic gain on DGX-1 suspiciously small: %.1f%%", dgx)
	}
	if summit > dgx/2 {
		t.Fatalf("Summit gain should be much smaller than DGX-1 gain: %.1f vs %.1f", summit, dgx)
	}
}

func TestPinningPenaltySubstantial(t *testing.T) {
	without := measureGemmPinning(Config{}, 16384, 2048, false).GFlops
	with := measureGemmPinning(Config{}, 16384, 2048, true).GFlops
	if with >= without {
		t.Fatalf("pinning inside the timed section must cost: %.0f vs %.0f", with, without)
	}
	if without/with < 1.5 {
		t.Fatalf("pinning penalty too small to match §IV-A's remark: %.2fx", without/with)
	}
}

func TestHermitianThroughputReasonable(t *testing.T) {
	gf := measureHermitian(Config{}, blasops.Zgemm, 8192, 1024).GFlops
	if gf < 10000 || gf > 62400 {
		t.Fatalf("ZGEMM throughput %0.f GF/s outside plausible range", gf)
	}
	herk := measureHermitian(Config{}, blasops.Herk, 8192, 1024).GFlops
	if herk <= 0 || herk > gf {
		t.Fatalf("HERK %0.f GF/s should be positive and below ZGEMM %0.f", herk, gf)
	}
}
