package sim

import "fmt"

// Resource is the common surface of the contended-resource models (FIFO
// Server and processor-sharing FairServer): transfers submit jobs, cost
// models ask for unloaded service times and congestion hints, the metrics
// layer reads unified utilization statistics.
type Resource interface {
	Name() string
	Rate() float64
	Submit(size float64, overhead Time, done func(start, end Time))
	// ServiceTime reports how long a job would take unloaded.
	ServiceTime(size float64, overhead Time) Time
	// AvailableAt reports the earliest instant a new job could start
	// service (now, for sharing models).
	AvailableAt() Time
	// Stats reports the utilization counters accumulated so far.
	Stats() ResourceStats
	// Reset returns the resource to its initial idle state (clock
	// bookkeeping zeroed, statistics cleared) while keeping any internal
	// pools, so a platform can be reused across repetitions and reproduce
	// the event order of a fresh one. Call only with the owning engine
	// quiescent (after Engine.Reset dropped pending completions).
	Reset()
}

// JobDone is the allocation-free form of a completion callback: pooled
// objects implementing JobDone can be handed to Server.SubmitJob instead of
// a per-call closure.
type JobDone interface {
	JobDone(start, end Time)
}

// ResourceStats is the unified utilization report of every resource model.
// Served/Units/Busy cover *delivered* service only: when the engine aborts
// mid-run (Engine.Stop, Runtime.Cancel), jobs still in the queue appear in
// Submitted but never in the served-work counters. For the FIFO Server,
// Busy is the sum of completed service intervals; for the processor-sharing
// FairServer it is the exact time the resource had at least one job in
// service (service is continuous, so all time spent is delivered work even
// if a job's completion never fires).
type ResourceStats struct {
	// Submitted counts jobs accepted, including ones still queued or lost
	// to an aborted engine.
	Submitted uint64
	// Served counts jobs whose service completed.
	Served uint64
	// Units is the total size delivered by served jobs (bytes for links,
	// effective flops for kernel streams).
	Units float64
	// Busy is the delivered service time (see above for per-model detail).
	Busy Time
	// InflightMax is the high-water mark of jobs concurrently in flight:
	// submitted but not yet completed. The definition is identical for both
	// models — what differs is only where an in-flight job sits: behind the
	// FIFO Server at most one is in service and the rest are queued, while
	// the processor-sharing FairServer serves every in-flight job at once,
	// so the value is its peak sharing degree. (The field was formerly
	// named QueueMax, which read as "maximum queue length" — a meaning only
	// the FIFO model matched.)
	InflightMax int
}

// Server models a serial FIFO resource with a fixed service rate: a
// point-to-point link, a PCIe switch uplink, a DMA copy engine or a GPU
// kernel stream. Jobs are served one at a time in submission order; a job of
// size units takes overhead + size/rate seconds.
//
// Because a Server never blocks the submitter (it only queues), resource
// graphs built from Servers are deadlock-free by construction.
type Server struct {
	eng  *Engine
	name string
	rate float64 // units per second of virtual time

	busyUntil Time

	// Statistics. Served-work counters (Served, Units, Busy) accrue in the
	// completion event, never at submission: a job drained by an engine
	// abort must not be credited as utilization.
	stats   ResourceStats
	pending int

	// jobFree recycles completion records: steady-state submission performs
	// no heap allocation (mirroring the engine's event free list).
	jobFree []*srvJob
}

// srvJob is the pooled completion record of one queued job. It doubles as
// the engine event handler, so a Submit costs zero allocations once the
// pool is warm.
type srvJob struct {
	s          *Server
	size       float64
	start, end Time
	done       func(start, end Time)
	jd         JobDone
}

// Fire implements Handler: credit served work, recycle, notify.
func (j *srvJob) Fire() {
	s := j.s
	s.pending--
	s.stats.Served++
	s.stats.Units += j.size
	s.stats.Busy += j.end - j.start
	done, jd, start, end := j.done, j.jd, j.start, j.end
	j.done, j.jd = nil, nil
	s.jobFree = append(s.jobFree, j)
	if jd != nil {
		jd.JobDone(start, end)
	} else if done != nil {
		done(start, end)
	}
}

// NewServer creates a FIFO server with the given service rate in units per
// second (for links: bytes/s; for kernel streams: flops/s).
func NewServer(eng *Engine, name string, rate float64) *Server {
	if rate <= 0 {
		panic(fmt.Sprintf("sim: server %q needs positive rate, got %g", name, rate))
	}
	return &Server{eng: eng, name: name, rate: rate}
}

// Name reports the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Rate reports the service rate in units per second.
func (s *Server) Rate() float64 { return s.rate }

// Submit enqueues a job of the given size with a fixed per-job overhead. The
// done callback (may be nil) runs when the job finishes and receives the
// virtual start and end times of its service interval.
func (s *Server) Submit(size float64, overhead Time, done func(start, end Time)) {
	s.submit(size, overhead, done, nil)
}

// SubmitJob enqueues a job whose completion notifies jd (may be nil). It is
// the allocation-free counterpart of Submit: jd is typically a pooled or
// long-lived object, so the hot submit path never touches the heap.
func (s *Server) SubmitJob(size float64, overhead Time, jd JobDone) {
	s.submit(size, overhead, nil, jd)
}

func (s *Server) submit(size float64, overhead Time, done func(start, end Time), jd JobDone) {
	if size < 0 {
		panic(fmt.Sprintf("sim: negative job size %g on %q", size, s.name))
	}
	start := s.busyUntil
	if now := s.eng.Now(); start < now {
		start = now
	}
	end := start + overhead + Time(size/s.rate)
	s.busyUntil = end
	s.stats.Submitted++
	s.pending++
	if s.pending > s.stats.InflightMax {
		s.stats.InflightMax = s.pending
	}
	var j *srvJob
	if n := len(s.jobFree); n > 0 {
		j = s.jobFree[n-1]
		s.jobFree[n-1] = nil
		s.jobFree = s.jobFree[:n-1]
	} else {
		j = &srvJob{}
	}
	j.s, j.size, j.start, j.end, j.done, j.jd = s, size, start, end, done, jd
	// The completion event is always scheduled (even with a nil done):
	// served-work accounting belongs to service completion. An aborted
	// engine drops the event, and with it the utilization credit — queued
	// jobs that never ran used to inflate busy time here.
	s.eng.AtHandler(end, j)
}

// ServiceTime reports how long a job of the given size would occupy the
// server, excluding queueing.
func (s *Server) ServiceTime(size float64, overhead Time) Time {
	return overhead + Time(size/s.rate)
}

// AvailableAt reports the earliest time a new job could start service.
func (s *Server) AvailableAt() Time {
	if now := s.eng.Now(); s.busyUntil < now {
		return now
	}
	return s.busyUntil
}

// Stats reports the utilization counters accumulated so far (Resource).
func (s *Server) Stats() ResourceStats { return s.stats }

// Reset returns the server to its initial idle state while keeping the
// completion-record pool (Resource). The owning engine must be quiescent:
// pending completion events are assumed dropped by Engine.Reset.
func (s *Server) Reset() {
	s.busyUntil = 0
	s.stats = ResourceStats{}
	s.pending = 0
}

// Transfer occupies every server in path with the same job and fires done
// once all of them have finished. It models a transfer that crosses several
// shared resources (e.g. source PCIe switch, QPI, destination PCIe switch):
// each hop queues independently and the payload is delivered at the latest
// completion. The reported start is the earliest service start and the end
// the latest service end.
func Transfer(eng *Engine, path []Resource, size float64, overhead Time, done func(start, end Time)) {
	if len(path) == 0 {
		panic("sim: Transfer over empty path")
	}
	remaining := len(path)
	first := Infinity
	var last Time
	for _, srv := range path {
		srv.Submit(size, overhead, func(st, en Time) {
			if st < first {
				first = st
			}
			if en > last {
				last = en
			}
			remaining--
			if remaining == 0 && done != nil {
				done(first, last)
			}
		})
	}
}
