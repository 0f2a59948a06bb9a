package sim

import "fmt"

// FairServer models a resource whose capacity is shared equally among all
// in-flight jobs (processor sharing) — how a full-duplex link multiplexes
// concurrent DMA transfers, as opposed to the FIFO serialization of
// Server. With k jobs active, each progresses at rate/k.
//
// Both models yield identical aggregate throughput; they differ in
// completion-time distribution (FIFO finishes jobs one by one, fair
// sharing finishes similar jobs together). The platform's links are FIFO
// Servers, which match the paper's measured per-transfer bandwidths; the
// serving layer shares each fleet capacity through a FairServer.
type FairServer struct {
	eng  *Engine
	name string
	rate float64

	// jobs holds the in-flight jobs in submission order. Nothing depends on
	// that order: completions are sorted (sortJobs), the minimum residual is
	// order-free, and each job's progress is its own.
	jobs      []*fairJob
	finished  []*fairJob // advance's scratch: this instant's completions
	jobFree   []*fairJob // recycled job records
	wakeFree  []*fairWake
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
	}
}

// Submit adds a job of the given size; done (may be nil) fires when the
// job's share of the capacity has delivered all its units.
func (s *FairServer) Submit(size float64, overhead Time, done JobDone) {
	if size < 0 {
		panic(fmt.Sprintf("sim: negative job size %g on %q", size, s.name))
	}
	s.advance()
	s.seq++
	var j *fairJob
	if n := len(s.jobFree); n > 0 {
		j = s.jobFree[n-1]
		s.jobFree[n-1] = nil
		s.jobFree = s.jobFree[:n-1]
	} else {
		j = new(fairJob)
	}
	*j = fairJob{
		remaining: size + float64(overhead)*s.rate, // fold overhead into units
		size:      size,
		startAt:   s.eng.Now(),
		seq:       s.seq,
		done:      done,
	}
	s.jobs = append(s.jobs, j)
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
		for _, j := range s.jobs {
			j.remaining -= share
		}
	}
	eps := s.finishEps()
	live := s.jobs[:0]
	for _, j := range s.jobs {
		if j.remaining <= eps {
			s.finished = append(s.finished, j)
		} else {
			live = append(live, j)
		}
	}
	if len(s.finished) == 0 {
		return
	}
	clear(s.jobs[len(live):])
	s.jobs = live
	// Deterministic completion order: by start time, then remaining work,
	// then submission order.
	finished := s.finished
	sortJobs(finished)
	for _, j := range finished {
		s.stats.Served++
		s.stats.Units += j.size
	}
	// The scratch slice is safe to walk while callbacks run: a re-entrant
	// Submit returns from advance before touching it. Each record goes back
	// to the pool before its callback, so that Submit can reuse it.
	s.advancing = true
	for i, j := range finished {
		done, start := j.done, j.startAt
		j.done = nil
		s.jobFree = append(s.jobFree, j)
		finished[i] = nil
		if done != nil {
			done.JobDone(start, now)
		}
	}
	s.advancing = false
	s.finished = finished[:0]
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

// fairWake is a pooled wake-up event: it carries the token of the schedule
// that armed it, and is a no-op once a newer schedule supersedes it.
type fairWake struct {
	s     *FairServer
	token uint64
}

// Fire implements Handler.
func (w *fairWake) Fire() {
	s, token := w.s, w.token
	s.wakeFree = append(s.wakeFree, w)
	if token != s.wakeToken {
		return // superseded by a newer schedule
	}
	s.advance()
	s.reschedule()
}

// reschedule arms a wake-up at the next completion instant.
func (s *FairServer) reschedule() {
	if len(s.jobs) == 0 {
		return
	}
	minRemaining := -1.0
	for _, j := range s.jobs {
		if minRemaining < 0 || j.remaining < minRemaining {
			minRemaining = j.remaining
		}
	}
	eta := Time(minRemaining * float64(len(s.jobs)) / s.rate)
	s.wakeToken++
	var w *fairWake
	if n := len(s.wakeFree); n > 0 {
		w = s.wakeFree[n-1]
		s.wakeFree[n-1] = nil
		s.wakeFree = s.wakeFree[:n-1]
	} else {
		w = &fairWake{s: s}
	}
	w.token = s.wakeToken
	s.eng.AtHandler(s.eng.Now()+eta, w)
}

// Stats reports the utilization counters accumulated so far.
func (s *FairServer) Stats() ResourceStats { return s.stats }

// Active reports the number of in-flight jobs.
func (s *FairServer) Active() int { return len(s.jobs) }
