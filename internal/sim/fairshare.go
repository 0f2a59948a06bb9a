package sim

import "fmt"

// FairServer models a resource whose capacity is shared equally among all
// in-flight jobs (processor sharing) — how a full-duplex link multiplexes
// concurrent DMA transfers, as opposed to the FIFO serialization of
// Server. With k jobs active, each progresses at rate/k.
//
// Both models yield identical aggregate throughput; they differ in
// completion-time distribution (FIFO finishes jobs one by one, fair
// sharing finishes similar jobs together). The platform uses FIFO by
// default — it matches the paper's measured per-transfer bandwidths more
// closely — and the BenchmarkAblationLinkModel bench shows the headline
// results are robust to either choice.
type FairServer struct {
	eng  *Engine
	name string
	rate float64

	jobs      map[*fairJob]struct{}
	lastUpd   Time
	wakeToken uint64
	seq       uint64 // submission counter: deterministic completion ties

	// advancing marks the completion-callback phase of advance. A callback
	// may re-enter Submit on this server; the nested advance must not run —
	// the outer call already progressed every job to the current instant and
	// owns completion processing (see advance).
	advancing bool

	// Statistics. Served/Units accrue at job completion; Busy accrues in
	// advance() as active service time, which is delivered work by
	// construction (see ResourceStats).
	stats ResourceStats
}

type fairJob struct {
	remaining float64 // units left
	size      float64 // original job size, credited to Units on completion
	startAt   Time
	seq       uint64 // submission order, the final completion tie-break
	done      JobDone
}

// NewFairServer creates a processor-sharing server with the given rate in
// units per second.
func NewFairServer(eng *Engine, name string, rate float64) *FairServer {
	if rate <= 0 {
		panic(fmt.Sprintf("sim: fair server %q needs positive rate, got %g", name, rate))
	}
	return &FairServer{
		eng:  eng,
		name: name,
		rate: rate,
		jobs: make(map[*fairJob]struct{}),
	}
}

// Name reports the server's diagnostic name.
func (s *FairServer) Name() string { return s.name }

// Rate reports the total service rate.
func (s *FairServer) Rate() float64 { return s.rate }

// Submit adds a job of the given size; done (may be nil) fires when the
// job's share of the capacity has delivered all its units.
func (s *FairServer) Submit(size float64, overhead Time, done JobDone) {
	if size < 0 {
		panic(fmt.Sprintf("sim: negative job size %g on %q", size, s.name))
	}
	s.advance()
	s.seq++
	j := &fairJob{
		remaining: size + float64(overhead)*s.rate, // fold overhead into units
		size:      size,
		startAt:   s.eng.Now(),
		seq:       s.seq,
		done:      done,
	}
	s.jobs[j] = struct{}{}
	s.stats.Submitted++
	if len(s.jobs) > s.stats.InflightMax {
		s.stats.InflightMax = len(s.jobs)
	}
	s.reschedule()
}

// finishEps reports the residual-work threshold below which a job is
// considered complete: one picosecond of service. The threshold must be
// relative to the rate — with byte rates around 1e10, an absolute epsilon
// can leave a sliver of work whose completion ETA rounds below the virtual
// clock's float64 ulp, which would wedge the wake-up loop at one instant.
func (s *FairServer) finishEps() float64 { return s.rate * 1e-12 }

// advance progresses every in-flight job to the current instant and
// completes every job whose residual is below the finish threshold (even
// when no time has passed: completion must not depend on the clock being
// able to represent a sub-ulp step).
//
// Completion is two-phase: every finished job is removed from the active
// set and credited to the stats before any done callback fires. A callback
// may re-enter Submit on this server (a dispatcher starting the next
// request from a completion); the job set and stats it observes — and that
// its nested reschedule derives the wake ETA from — must already be
// consistent. Pre-fix, the nested advance found the not-yet-removed
// finished jobs still in the set and completed them again: Served/Units
// double-counted and their callbacks double-fired.
func (s *FairServer) advance() {
	if s.advancing {
		// Re-entered from a completion callback at the same instant: the
		// outer advance has already progressed every job to now and will
		// finish the completion pass itself.
		return
	}
	now := s.eng.Now()
	dt := now - s.lastUpd
	s.lastUpd = now
	if len(s.jobs) == 0 {
		return
	}
	if dt > 0 {
		s.stats.Busy += dt
		share := float64(dt) * s.rate / float64(len(s.jobs))
		for j := range s.jobs {
			j.remaining -= share
		}
	}
	var finished []*fairJob
	for j := range s.jobs {
		if j.remaining <= s.finishEps() {
			finished = append(finished, j)
		}
	}
	// Deterministic completion order: by start time, then remaining work,
	// then submission order (map iteration must never decide ties).
	sortJobs(finished)
	for _, j := range finished {
		delete(s.jobs, j)
		s.stats.Served++
		s.stats.Units += j.size
	}
	s.advancing = true
	for _, j := range finished {
		if j.done != nil {
			j.done.JobDone(j.startAt, now)
		}
	}
	s.advancing = false
}

func sortJobs(js []*fairJob) {
	for i := 1; i < len(js); i++ {
		for k := i; k > 0 && less(js[k], js[k-1]); k-- {
			js[k], js[k-1] = js[k-1], js[k]
		}
	}
}

func less(a, b *fairJob) bool {
	if a.startAt != b.startAt {
		return a.startAt < b.startAt
	}
	if a.remaining != b.remaining {
		return a.remaining < b.remaining
	}
	return a.seq < b.seq
}

// reschedule arms a wake-up at the next completion instant.
func (s *FairServer) reschedule() {
	if len(s.jobs) == 0 {
		return
	}
	minRemaining := -1.0
	for j := range s.jobs {
		if minRemaining < 0 || j.remaining < minRemaining {
			minRemaining = j.remaining
		}
	}
	eta := Time(minRemaining * float64(len(s.jobs)) / s.rate)
	s.wakeToken++
	token := s.wakeToken
	s.eng.After(eta, func() {
		if token != s.wakeToken {
			return // superseded by a newer schedule
		}
		s.advance()
		s.reschedule()
	})
}

// ServiceTime reports the unloaded duration of a job (Resource).
func (s *FairServer) ServiceTime(size float64, overhead Time) Time {
	return overhead + Time(size/s.rate)
}

// AvailableAt reports when a new job could start service: immediately,
// since processor sharing always admits (Resource).
func (s *FairServer) AvailableAt() Time { return s.eng.Now() }

// Stats reports the utilization counters accumulated so far (Resource).
func (s *FairServer) Stats() ResourceStats { return s.stats }

// Reset returns the server to its initial idle state (Resource). In-flight
// jobs are dropped: their wake-up events are assumed gone via Engine.Reset.
func (s *FairServer) Reset() {
	for j := range s.jobs {
		delete(s.jobs, j)
	}
	s.lastUpd = 0
	s.wakeToken = 0
	s.seq = 0
	s.advancing = false
	s.stats = ResourceStats{}
}

// Active reports the number of in-flight jobs.
func (s *FairServer) Active() int { return len(s.jobs) }
