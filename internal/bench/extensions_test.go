package bench

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"xkblas/internal/blasops"
)

func TestExtensionExperimentsRun(t *testing.T) {
	// Each extension must complete and produce non-empty output at quick
	// scale; they are part of the cmd/xkbench surface.
	cases := map[string]func(io.Writer, Config, bool){
		"scale":    Scalability,
		"summit":   SummitPrediction,
		"pinning":  PinningCost,
		"hermitan": Hermitian,
		"factor":   Factorizations,
	}
	for name, fn := range cases {
		var buf bytes.Buffer
		fn(&buf, parallelRun(), true)
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", name)
		}
		if strings.Contains(buf.String(), "ERROR") {
			t.Errorf("%s reported errors:\n%s", name, buf.String())
		}
	}
}

func TestSummitPredictionHolds(t *testing.T) {
	var buf bytes.Buffer
	SummitPrediction(&buf, parallelRun(), true)
	out := buf.String()
	// Parse the gain column and assert the DGX-1 gain dominates Summit's
	// (§III-C): the table rows are "platform  full  ablated  gain%".
	var dgx, summit float64
	for _, line := range strings.Split(out, "\n") {
		var on, off, gain float64
		if strings.HasPrefix(line, "DGX-1 (") {
			if _, err := fmtSscanfGain(line, &on, &off, &gain); err == nil {
				dgx = gain
			}
		}
		if strings.HasPrefix(line, "Summit") {
			if _, err := fmtSscanfGain(line, &on, &off, &gain); err == nil {
				summit = gain
			}
		}
	}
	if dgx <= summit {
		t.Fatalf("§III-C prediction violated: DGX-1 gain %.1f%% <= Summit gain %.1f%%\n%s",
			dgx, summit, out)
	}
	if dgx < 5 {
		t.Fatalf("optimistic heuristic gain on DGX-1 suspiciously small: %.1f%%", dgx)
	}
	if summit > dgx/2 {
		t.Fatalf("Summit gain should be much smaller than DGX-1 gain: %.1f vs %.1f", summit, dgx)
	}
}

// fmtSscanfGain extracts the "full ablated gain%" numeric columns from a
// platform row, skipping digits embedded in the platform name.
func fmtSscanfGain(line string, on, off, gain *float64) (int, error) {
	idx := strings.Index(line, ")")
	if idx < 0 {
		return 0, io.EOF
	}
	return sscanThree(line[idx+1:], on, off, gain)
}

func sscanThree(s string, on, off, gain *float64) (int, error) {
	var a, b, c float64
	n, err := fscan(s, &a, &b, &c)
	if err != nil {
		return n, err
	}
	*on, *off, *gain = a, b, c
	return n, nil
}

func fscan(s string, out ...*float64) (int, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return !(r == '.' || r == '-' || r == '+' || (r >= '0' && r <= '9'))
	})
	n := 0
	for _, f := range fields {
		if n >= len(out) {
			break
		}
		var v float64
		if _, err := sscanFloat(f, &v); err == nil {
			*out[n] = v
			n++
		}
	}
	if n < len(out) {
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}

func sscanFloat(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestPinningPenaltySubstantial(t *testing.T) {
	without := measureGemmPinning(Config{}, 16384, 2048, false)
	with := measureGemmPinning(Config{}, 16384, 2048, true)
	if with >= without {
		t.Fatalf("pinning inside the timed section must cost: %.0f vs %.0f", with, without)
	}
	if without/with < 1.5 {
		t.Fatalf("pinning penalty too small to match §IV-A's remark: %.2fx", without/with)
	}
}

func TestHermitianThroughputReasonable(t *testing.T) {
	gf := measureHermitian(Config{}, blasops.Zgemm, 8192, 1024)
	if gf < 10000 || gf > 62400 {
		t.Fatalf("ZGEMM throughput %0.f GF/s outside plausible range", gf)
	}
	herk := measureHermitian(Config{}, blasops.Herk, 8192, 1024)
	if herk <= 0 || herk > gf {
		t.Fatalf("HERK %0.f GF/s should be positive and below ZGEMM %0.f", herk, gf)
	}
}
