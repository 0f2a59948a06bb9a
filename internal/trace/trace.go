// Package trace records per-device timelines of GPU operations — the four
// categories of the paper's nvprof analysis (memcpy HtoD, DtoH, PtoP and
// kernel execution) — and computes the aggregations behind Fig. 6
// (cumulative time and normalized occupancy ratio), Fig. 7 (per-GPU
// breakdown) and Fig. 9 (Gantt charts).
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"xkblas/internal/cache"
	"xkblas/internal/metrics"
	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// OpKind is the operation category of one trace event.
type OpKind int

const (
	OpKernel OpKind = iota
	OpHtoD
	OpDtoH
	OpPtoP
	numKinds
)

func (k OpKind) String() string {
	switch k {
	case OpKernel:
		return "GPU Kernel"
	case OpHtoD:
		return "memcpy HtoD"
	case OpDtoH:
		return "memcpy DtoH"
	case OpPtoP:
		return "memcpy PtoP"
	default:
		return "?"
	}
}

// Kinds lists the categories in display order.
func Kinds() []OpKind { return []OpKind{OpDtoH, OpHtoD, OpPtoP, OpKernel} }

// Event is one operation interval attributed to a GPU.
type Event struct {
	Dev        topology.DeviceID
	Kind       OpKind
	Label      string
	Start, End sim.Time
	Bytes      int64
}

// Duration reports the event length.
func (e Event) Duration() sim.Time { return e.End - e.Start }

// Recorder collects events. It implements cache.Observer and the runtime's
// kernel observer.
type Recorder struct {
	Events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// OnTransfer implements cache.Observer; transfers are attributed to the GPU
// end of the route (destination for HtoD/PtoP, source for DtoH), matching
// nvprof's per-device attribution in §IV-E.
func (r *Recorder) OnTransfer(kind cache.TransferKind, src, dst topology.DeviceID, bytes int64, start, end sim.Time) {
	ev := Event{Start: start, End: end, Bytes: bytes}
	switch kind {
	case cache.HostToDevice:
		ev.Kind, ev.Dev = OpHtoD, dst
	case cache.DeviceToHost:
		ev.Kind, ev.Dev = OpDtoH, src
	case cache.PeerToPeer:
		ev.Kind, ev.Dev = OpPtoP, dst
	}
	ev.Label = fmt.Sprintf("%v %d->%d", ev.Kind, src, dst)
	r.Events = append(r.Events, ev)
}

// OnKernel implements the runtime kernel observer.
func (r *Recorder) OnKernel(dev topology.DeviceID, name string, start, end sim.Time) {
	r.Events = append(r.Events, Event{Dev: dev, Kind: OpKernel, Label: name, Start: start, End: end})
}

// Reset discards recorded events.
func (r *Recorder) Reset() { r.Events = r.Events[:0] }

// CumulativeByKind sums event durations per category over all GPUs — the
// left panel of Fig. 6.
func (r *Recorder) CumulativeByKind() map[OpKind]sim.Time {
	out := make(map[OpKind]sim.Time, numKinds)
	for _, e := range r.Events {
		out[e.Kind] += e.Duration()
	}
	return out
}

// NormalizedByKind reports each category's share of the total recorded busy
// time, in percent — the right panel of Fig. 6. The total is summed in
// Kinds order, so repeated calls agree to the last bit.
func (r *Recorder) NormalizedByKind() map[OpKind]float64 {
	cum := r.CumulativeByKind()
	var total sim.Time
	for _, k := range Kinds() {
		total += cum[k]
	}
	out := make(map[OpKind]float64, len(cum))
	if total == 0 {
		return out
	}
	for k, v := range cum {
		out[k] = 100 * float64(v) / float64(total)
	}
	return out
}

// PerGPUByKind sums durations per device and category — Fig. 7.
func (r *Recorder) PerGPUByKind(numGPUs int) []map[OpKind]sim.Time {
	out := make([]map[OpKind]sim.Time, numGPUs)
	for i := range out {
		out[i] = make(map[OpKind]sim.Time, numKinds)
	}
	for _, e := range r.Events {
		if int(e.Dev) < numGPUs {
			out[e.Dev][e.Kind] += e.Duration()
		}
	}
	return out
}

// metricName is the OpKind's metric-name segment.
func (k OpKind) metricName() string {
	switch k {
	case OpKernel:
		return "kernel"
	case OpHtoD:
		return "h2d"
	case OpDtoH:
		return "d2h"
	case OpPtoP:
		return "p2p"
	default:
		return "unknown"
	}
}

// PublishMetrics stores the per-GPU busy time by operation category into reg
// as "trace.gpu<d>.<kind>.busy_seconds" gauges (the Fig. 7 breakdown on the
// metrics surface). Set keeps publication idempotent.
func (r *Recorder) PublishMetrics(reg *metrics.Registry, numGPUs int) {
	per := r.PerGPUByKind(numGPUs)
	for d, byKind := range per {
		for _, k := range Kinds() {
			name := fmt.Sprintf("trace.gpu%d.%s.busy_seconds", d, k.metricName())
			reg.Gauge(name).Set(float64(byKind[k]))
		}
	}
}

// Span reports the [min start, max end] of all events.
func (r *Recorder) Span() (start, end sim.Time) {
	if len(r.Events) == 0 {
		return 0, 0
	}
	start = r.Events[0].Start
	end = r.Events[0].End
	for _, e := range r.Events[1:] {
		if e.Start < start {
			start = e.Start
		}
		if e.End > end {
			end = e.End
		}
	}
	return start, end
}

// Timeline returns dev's events sorted by start time.
func (r *Recorder) Timeline(dev topology.DeviceID) []Event {
	var out []Event
	for _, e := range r.Events {
		if e.Dev == dev {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End < out[j].End
	})
	return out
}

// ganttGlyph maps categories to the characters used in the ASCII Gantt.
var ganttGlyph = map[OpKind]byte{
	OpKernel: '#',
	OpHtoD:   'h',
	OpDtoH:   'd',
	OpPtoP:   'p',
}

// Gantt renders an ASCII Gantt chart, one row per GPU (kernel lane) —
// the textual Fig. 9. Gaps (idle) appear as '.', kernels as '#',
// HtoD/DtoH/PtoP copies as 'h'/'d'/'p' (kernel wins when overlapping).
func (r *Recorder) Gantt(w io.Writer, numGPUs, width int) error {
	start, end := r.Span()
	if end <= start || width <= 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	scale := float64(width) / float64(end-start)
	rows := make([][]byte, numGPUs)
	prio := map[byte]int{'.': 0, 'd': 1, 'h': 2, 'p': 3, '#': 4}
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	for _, e := range r.Events {
		if int(e.Dev) >= numGPUs || e.Dev < 0 {
			continue
		}
		g := ganttGlyph[e.Kind]
		lo := int(float64(e.Start-start) * scale)
		hi := int(float64(e.End-start) * scale)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		for x := lo; x < hi; x++ {
			if prio[g] > prio[rows[e.Dev][x]] {
				rows[e.Dev][x] = g
			}
		}
	}
	if _, err := fmt.Fprintf(w, "time span %.3fs..%.3fs, '#'=kernel 'h'=HtoD 'd'=DtoH 'p'=PtoP '.'=idle\n",
		float64(start), float64(end)); err != nil {
		return err
	}
	for i := numGPUs - 1; i >= 0; i-- {
		if _, err := fmt.Fprintf(w, "GPU%d |%s|\n", i, rows[i]); err != nil {
			return err
		}
	}
	return nil
}

// IdleRatio reports the fraction of the makespan each GPU's kernel lane is
// idle — the synchronization-gap metric of the Fig. 9 discussion.
func (r *Recorder) IdleRatio(numGPUs int) []float64 {
	start, end := r.Span()
	total := end - start
	out := make([]float64, numGPUs)
	if total <= 0 {
		return out
	}
	for d := 0; d < numGPUs; d++ {
		var busy sim.Time
		for _, e := range r.Events {
			if e.Dev == topology.DeviceID(d) && e.Kind == OpKernel {
				busy += e.Duration()
			}
		}
		out[d] = 1 - float64(busy)/float64(total)
	}
	return out
}
