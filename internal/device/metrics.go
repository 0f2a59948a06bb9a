package device

import (
	"xkblas/internal/metrics"
	"xkblas/internal/sim"
)

// PublishMetrics stores every contended resource's utilization counters into
// reg under the "res." prefix and rolls them up per traffic class under
// "class." — the per-link-class volume table of the paper (Table 3: kernel
// occupancy, H2D/D2H/NVLink/PCIe/QPI byte volumes). Publication uses
// Store/Set so it is idempotent.
//
// Units depend on the class: kernel streams serve effective flops, the
// pinner and every link serve bytes. The per-class rollup therefore never
// mixes classes.
func (p *Platform) PublishMetrics(reg *metrics.Registry) {
	var units [numResourceClasses]float64
	var busy [numResourceClasses]sim.Time
	var served [numResourceClasses]int64
	for _, cr := range p.resources {
		st := cr.Res.Stats()
		name := "res." + cr.Res.Name()
		reg.Counter(name + ".served").Store(int64(st.Served))
		reg.Gauge(name + ".units").Set(st.Units)
		reg.Gauge(name + ".busy_seconds").Set(float64(st.Busy))
		reg.Gauge(name + ".inflight_max").Set(float64(st.InflightMax))
		units[cr.Class] += st.Units
		busy[cr.Class] += st.Busy
		served[cr.Class] += int64(st.Served)
	}
	for c := ResourceClass(0); c < numResourceClasses; c++ {
		name := "class." + c.String()
		unit := ".bytes"
		if c == ClassKernel || c == ClassHost {
			// Kernel streams and the host BLAS server serve effective
			// flops; everything else serves bytes.
			unit = ".flops"
		}
		reg.Gauge(name + unit).Set(units[c])
		reg.Gauge(name + ".busy_seconds").Set(float64(busy[c]))
		reg.Counter(name + ".served").Store(served[c])
	}
}
