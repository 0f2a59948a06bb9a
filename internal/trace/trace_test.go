package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"xkblas/internal/cache"
	"xkblas/internal/sim"
)

func sampleRecorder() *Recorder {
	r := NewRecorder()
	r.OnKernel(0, "GEMM", 0, 2)
	r.OnKernel(1, "GEMM", 1, 2)
	r.OnTransfer(cache.HostToDevice, -1, 0, 1000, 0, 1)
	r.OnTransfer(cache.DeviceToHost, 1, -1, 500, 2, 3)
	r.OnTransfer(cache.PeerToPeer, 0, 1, 800, 0.5, 1)
	return r
}

func TestTransferAttribution(t *testing.T) {
	r := sampleRecorder()
	per := r.PerGPUByKind(2)
	if per[0][OpHtoD] != 1 {
		t.Errorf("HtoD must be attributed to the destination GPU: %v", per[0])
	}
	if per[1][OpDtoH] != 1 {
		t.Errorf("DtoH must be attributed to the source GPU: %v", per[1])
	}
	if per[1][OpPtoP] != 0.5 {
		t.Errorf("PtoP must be attributed to the destination GPU: %v", per[1])
	}
}

func TestCumulativeAndNormalized(t *testing.T) {
	r := sampleRecorder()
	cum := r.CumulativeByKind()
	if cum[OpKernel] != 3 { // 2 + 1
		t.Errorf("kernel cumulative = %v", cum[OpKernel])
	}
	norm := r.NormalizedByKind()
	var total float64
	for _, v := range norm {
		total += v
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("normalized ratios sum to %g, want 100", total)
	}
}

// TestNormalizedByKindDeterministic: the shares divide by one total, summed
// in a fixed kind order, so repeated calls agree to the last bit even where
// the order of a float sum shows (0.1, 0.7, 0.2 and 0.3 sum to 1.3 or to
// 1.2999999999999998 depending on where the sum starts).
func TestNormalizedByKindDeterministic(t *testing.T) {
	r := NewRecorder()
	for i, d := range []sim.Time{0.1, 0.7, 0.2, 0.3} {
		r.Events = append(r.Events, Event{Kind: Kinds()[i], End: d})
	}
	want := r.NormalizedByKind()
	for range 200 {
		for k, v := range r.NormalizedByKind() {
			if v != want[k] {
				t.Fatalf("%v share %v, first call %v", k, v, want[k])
			}
		}
	}
}

func TestSpanAndTimeline(t *testing.T) {
	r := sampleRecorder()
	s, e := r.Span()
	if s != 0 || e != 3 {
		t.Errorf("span = [%v,%v], want [0,3]", s, e)
	}
	tl := r.Timeline(1)
	if len(tl) != 3 {
		t.Fatalf("timeline(1) events = %d, want 3", len(tl))
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].Start < tl[i-1].Start {
			t.Fatal("timeline not sorted")
		}
	}
}

func TestGanttRendering(t *testing.T) {
	r := sampleRecorder()
	var buf bytes.Buffer
	if err := r.Gantt(&buf, 2, 30); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "GPU0") || !strings.Contains(out, "GPU1") {
		t.Fatalf("missing GPU rows:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatal("no kernel glyphs rendered")
	}
	// Kernel overrides transfer glyphs when overlapping.
	row0 := out[strings.Index(out, "GPU0"):]
	if strings.Count(row0[:strings.Index(row0, "\n")], "h") > 0 &&
		!strings.Contains(row0, "#") {
		t.Fatal("kernel priority violated in Gantt")
	}
}

func TestGanttEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRecorder().Gantt(&buf, 2, 30); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Fatal("empty trace not reported")
	}
}

func TestIdleRatio(t *testing.T) {
	r := NewRecorder()
	r.OnKernel(0, "GEMM", 0, 4) // busy the whole span
	r.OnKernel(1, "GEMM", 0, 1) // 25% busy
	idle := r.IdleRatio(2)
	if idle[0] != 0 {
		t.Errorf("GPU0 idle = %g, want 0", idle[0])
	}
	if math.Abs(idle[1]-0.75) > 1e-9 {
		t.Errorf("GPU1 idle = %g, want 0.75", idle[1])
	}
}

func TestReset(t *testing.T) {
	r := sampleRecorder()
	r.Reset()
	if len(r.Events) != 0 {
		t.Fatal("reset did not clear events")
	}
	var s, e sim.Time = r.Span()
	if s != 0 || e != 0 {
		t.Fatal("span of empty recorder")
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := sampleRecorder()
	var buf bytes.Buffer
	dropped, err := r.WriteChromeTrace(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0 (every sample event fits the range)", dropped)
	}
	var events []map[string]interface{}
	if err := jsonUnmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var complete, meta int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			complete++
			if e["dur"].(float64) <= 0 {
				t.Fatal("non-positive duration")
			}
		case "M":
			meta++
		}
	}
	if complete != len(r.Events) {
		t.Fatalf("complete events = %d, want %d", complete, len(r.Events))
	}
	if meta == 0 {
		t.Fatal("missing process/thread metadata")
	}
}

// TestChromeTraceHostLane exercises the host process: a host-attributed
// event (negative device id) must round-trip into the dedicated "Host"
// process (pid = numGPUs) rather than being silently dropped, while events
// beyond the exported GPU range are counted as dropped.
func TestChromeTraceHostLane(t *testing.T) {
	r := NewRecorder()
	r.OnKernel(0, "GEMM", 0, 2)
	r.Events = append(r.Events, Event{Dev: -1, Kind: OpDtoH, Label: "host-side", Start: 0, End: 1, Bytes: 64})
	r.Events = append(r.Events, Event{Dev: 5, Kind: OpKernel, Label: "out-of-range", Start: 0, End: 1})
	var buf bytes.Buffer
	dropped, err := r.WriteChromeTrace(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (only the out-of-range event)", dropped)
	}
	var events []map[string]interface{}
	if err := jsonUnmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	hostPid := float64(2)
	var hostEvents, hostProcMeta, complete int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			complete++
			if e["pid"].(float64) == hostPid {
				hostEvents++
				if e["name"] != "host-side" {
					t.Fatalf("unexpected event in host lane: %v", e["name"])
				}
			}
		case "M":
			if e["name"] == "process_name" && e["pid"].(float64) == hostPid {
				args := e["args"].(map[string]interface{})
				if args["name"] != "Host" {
					t.Fatalf("host process named %v, want Host", args["name"])
				}
				hostProcMeta++
			}
		}
	}
	if complete != 2 {
		t.Fatalf("complete events = %d, want 2 (kernel + host event)", complete)
	}
	if hostEvents != 1 {
		t.Fatalf("host-lane events = %d, want 1", hostEvents)
	}
	if hostProcMeta != 1 {
		t.Fatalf("host process metadata records = %d, want 1", hostProcMeta)
	}
}

// TestChromeTraceUnknownKindLane pins the overflow lane: an OpKind beyond
// the named set must land on its own thread id, not collide with the
// kernel lane.
func TestChromeTraceUnknownKindLane(t *testing.T) {
	r := NewRecorder()
	r.OnKernel(0, "GEMM", 0, 2)
	r.Events = append(r.Events, Event{Dev: 0, Kind: numKinds + 3, Label: "future-kind", Start: 0, End: 1})
	var buf bytes.Buffer
	if _, err := r.WriteChromeTrace(&buf, 1); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := jsonUnmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, e := range events {
		if e["ph"] != "X" {
			continue
		}
		tid := int(e["tid"].(float64))
		switch e["name"] {
		case "GEMM":
			if tid != 0 {
				t.Fatalf("kernel lane = %d, want 0", tid)
			}
		case "future-kind":
			if tid != chromeLaneOther {
				t.Fatalf("unknown kind lane = %d, want %d", tid, chromeLaneOther)
			}
		}
	}
}

func jsonUnmarshal(b []byte, v interface{}) error { return json.Unmarshal(b, v) }
