package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call (nothing is recorded inside the program).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Name   string  `json:"name"`
	Run    string  `json:"run"` // "setup-<i>" or "iter-<i>"
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	CPU0   float64 `json:"cpu0_s"` // process CPU time at Start
	CPU1   float64 `json:"cpu1_s"` // process CPU time at End
}

// tracer keeps the spans of the traced pass in memory until the pass ends.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	t0    time.Time
	run   string
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setRun tags the spans that follow with a run id.
func (t *tracer) setRun(run string) {
	if t != nil {
		t.run = run
	}
}

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: t.run,
		Start: time.Since(t.t0).Seconds(), CPU0: cpuSeconds()})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("perfbench: spans closed out of order")
	}
	s := &t.spans[id]
	s.End = time.Since(t.t0).Seconds()
	s.CPU1 = cpuSeconds()
	t.open = t.open[:len(t.open)-1]
}

// depth is the number of open spans.
func (t *tracer) depth() int {
	if t == nil {
		return 0
	}
	return len(t.open)
}

// unwind closes the spans a panic left open above depth.
func (t *tracer) unwind(depth int) {
	for t != nil && len(t.open) > depth {
		t.end(t.open[len(t.open)-1])
	}
}

// selfCPU is each span's CPU time minus the CPU time of its children: the
// time the layer spent in its own code.
func (t *tracer) selfCPU() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		d := s.CPU1 - s.CPU0
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

// layerSeconds sums self CPU time by span name, normalised per run of the
// phase the span ran in: set-up spans per set-up, measured spans per traced
// iteration.
func (t *tracer) layerSeconds(setups, iters int) map[string]float64 {
	out := make(map[string]float64)
	for i, self := range t.selfCPU() {
		n := iters
		if strings.HasPrefix(t.spans[i].Run, "setup-") {
			n = setups
		}
		out[t.spans[i].Name] += self / float64(max(n, 1))
	}
	return out
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
