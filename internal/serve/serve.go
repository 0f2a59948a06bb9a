// Package serve is the multi-tenant BLAS-as-a-service front end: a
// deterministic, simulated-time serving layer that accepts job-graph
// requests from thousands of simulated tenants and schedules them onto a
// fleet of multi-GPU platforms from the topology registry.
//
// Two clocks are composed. The outer clock is a sim.Engine carrying
// arrivals, admission, batching windows, deadlines and dispatch; each fleet
// platform is a sim.FairServer on that clock, sharing the platform's
// service capacity fairly among its in-flight jobs (processor sharing —
// concurrent DAGs on one machine slow each other down). The inner clock is
// the full library simulation: a request's service demand is the virtual
// makespan of actually running its DAG (via baseline.StdLib) on that
// platform, memoized per (platform, spec, batch size) in a demand table.
// Demands are pure functions of their key, so the table may be prewarmed by
// parallel workers and recycled through a HandlePool without perturbing a
// single output bit — replaying one trace at -parallel 1, 2 or 8 produces
// byte-identical reports.
//
// Admission is layered the way a real front end is: per-tenant token-bucket
// quotas by tier, then a bounded per-platform queue with a configurable
// backpressure policy (reject with a typed error, or block the excess in an
// unbounded spill), then deadline enforcement while queued. Sub-threshold
// small requests coalesce across tenants into fused DAGs
// (baseline.RunFused) under a batching window, the KBLAS-style answer to
// small-matrix traffic.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"xkblas/internal/sim"
	"xkblas/internal/topology"
)

// Typed admission errors, distinguishable by tenants (and tests) through
// errors.Is on a request's failure reason.
var (
	// ErrQuotaExceeded reports a request that found its tenant's token
	// bucket empty.
	ErrQuotaExceeded = errors.New("serve: tenant quota exceeded")
	// ErrQueueFull reports a request bounced off a full admission queue
	// under the Reject backpressure policy.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDeadline reports a request that aged out of the queue before
	// service started.
	ErrDeadline = errors.New("serve: deadline exceeded before service")
)

// BackpressurePolicy selects what happens to a request that clears its
// quota but finds the platform's bounded admission queue full.
type BackpressurePolicy int

const (
	// Reject bounces the request immediately with ErrQueueFull.
	Reject BackpressurePolicy = iota
	// Block parks the excess in an unbounded spill that refills the
	// bounded queue as it drains; latency absorbs the load instead of the
	// rejection counter.
	Block
)

func (b BackpressurePolicy) String() string {
	if b == Block {
		return "block"
	}
	return "reject"
}

// ParseBackpressure maps a flag value onto a BackpressurePolicy.
func ParseBackpressure(s string) (BackpressurePolicy, error) {
	switch s {
	case "reject":
		return Reject, nil
	case "block":
		return Block, nil
	}
	return 0, fmt.Errorf("serve: unknown backpressure policy %q (want reject or block)", s)
}

// Tier is one service class: a share of the tenant population, a
// token-bucket quota, and an optional queueing deadline.
type Tier struct {
	Name string
	// Weight is this tier's share of the tenant population; tiers split
	// the population proportionally.
	Weight float64
	// RefillPerSec and Burst parameterize the per-tenant token bucket; a
	// request costs one token.
	RefillPerSec float64
	Burst        float64
	// Deadline bounds a request's wait for service to start (seconds of
	// virtual time past arrival); 0 disables it. Requests still queued at
	// the deadline fail with ErrDeadline.
	Deadline sim.Time
}

// DefaultTiers is the three-class default: a broad free tier with a tight
// quota and a short patience, a standard tier, and a small premium tier
// with a deep bucket and no deadline.
func DefaultTiers() []Tier {
	return []Tier{
		{Name: "free", Weight: 0.6, RefillPerSec: 0.8, Burst: 4, Deadline: 3},
		{Name: "standard", Weight: 0.3, RefillPerSec: 3, Burst: 12, Deadline: 10},
		{Name: "premium", Weight: 0.1, RefillPerSec: 10, Burst: 40, Deadline: 0},
	}
}

// Config parameterizes one serving run. The zero value is not runnable;
// use Defaults (or fill every field) and adjust.
type Config struct {
	// Fleet names platforms from the topology registry; requests are
	// routed to the least-backlogged platform at dispatch time.
	Fleet []string

	Tiers []Tier
	Mix   []MixEntry

	Tenants  int
	Requests int

	Arrival    ArrivalPattern
	RatePerSec float64 // mean aggregate arrival rate
	Seed       int64

	// QueueDepth bounds each platform's admission queue; MaxInflight
	// bounds how many jobs time-share a platform at once.
	QueueDepth   int
	MaxInflight  int
	Backpressure BackpressurePolicy

	// Batching: requests with Spec.N < BatchThresholdN coalesce per spec
	// into fused DAGs of up to BatchMax instances, flushed when full or
	// after BatchWindow virtual seconds. BatchMax <= 1 disables batching.
	BatchThresholdN int
	BatchWindow     sim.Time
	BatchMax        int

	// Parallel bounds the demand-table prewarm workers (wall-clock only —
	// results are identical at any value). 0 means GOMAXPROCS.
	Parallel int
	// Check attaches the strict coherence auditor to every inner
	// simulation (bypasses handle reuse).
	Check bool
	// NoReuse disables HandlePool recycling of inner library contexts.
	NoReuse bool
	// Ctx, when non-nil, aborts the run (prewarm and replay) once
	// cancelled; Run returns the context's error.
	Ctx context.Context
}

// Defaults is the canonical serving scenario: 120 tenants across three
// tiers issuing 1200 requests at a bursty ~300 req/s aggregate against a
// dgx1+dgx2 fleet.
func Defaults() Config {
	return Config{
		Fleet:           []string{"dgx1", "dgx2"},
		Tiers:           DefaultTiers(),
		Mix:             DefaultMix(),
		Tenants:         120,
		Requests:        1200,
		Arrival:         Bursty,
		RatePerSec:      300,
		Seed:            1,
		QueueDepth:      8,
		MaxInflight:     4,
		Backpressure:    Reject,
		BatchThresholdN: 1024,
		BatchWindow:     0.005,
		BatchMax:        8,
	}
}

// ParseFleet splits a comma-separated platform list and validates each
// name against the topology registry.
func ParseFleet(s string) ([]string, error) {
	var fleet []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := topology.Lookup(name); !ok {
			return nil, fmt.Errorf("serve: unknown platform %q (have %s)", name, strings.Join(topology.Names(), ", "))
		}
		fleet = append(fleet, name)
	}
	if len(fleet) == 0 {
		return nil, errors.New("serve: empty fleet")
	}
	return fleet, nil
}

func (c *Config) validate() error {
	if len(c.Fleet) == 0 {
		return errors.New("serve: config needs at least one fleet platform")
	}
	for _, name := range c.Fleet {
		if _, ok := topology.Lookup(name); !ok {
			return fmt.Errorf("serve: unknown platform %q", name)
		}
	}
	if len(c.Tiers) == 0 || len(c.Mix) == 0 {
		return errors.New("serve: config needs tiers and a traffic mix")
	}
	// Every float below is checked with comparisons that NaN fails: a NaN
	// weight or quota compares false everywhere and would silently skew the
	// tenant split or switch the quota off, and a NaN batch window used to
	// hang the replay.
	tierSum := 0.0
	for _, t := range c.Tiers {
		switch {
		case !finiteNonNeg(t.Weight):
			return fmt.Errorf("serve: tier %q weight must be finite and >= 0, got %g", t.Name, t.Weight)
		case !finiteNonNeg(t.RefillPerSec):
			return fmt.Errorf("serve: tier %q refill rate must be finite and >= 0, got %g", t.Name, t.RefillPerSec)
		case !finiteNonNeg(t.Burst):
			return fmt.Errorf("serve: tier %q burst must be finite and >= 0, got %g", t.Name, t.Burst)
		case !finiteNonNeg(float64(t.Deadline)):
			return fmt.Errorf("serve: tier %q deadline must be finite and >= 0 (0 = none), got %g", t.Name, float64(t.Deadline))
		}
		tierSum += t.Weight
	}
	if !(tierSum > 0) || math.IsInf(tierSum, 1) {
		return fmt.Errorf("serve: tier weights must have a positive, finite sum, got %g", tierSum)
	}
	mixSum := 0.0
	for _, m := range c.Mix {
		if !finiteNonNeg(m.Weight) {
			return fmt.Errorf("serve: mix entry %v weight must be finite and >= 0, got %g", m.Spec, m.Weight)
		}
		mixSum += m.Weight
	}
	if !(mixSum > 0) || math.IsInf(mixSum, 1) {
		return fmt.Errorf("serve: mix weights must have a positive, finite sum, got %g", mixSum)
	}
	if c.Tenants < 1 || c.Requests < 1 {
		return errors.New("serve: config needs at least one tenant and one request")
	}
	if c.Arrival != Poisson && c.Arrival != Bursty {
		return fmt.Errorf("serve: unknown arrival pattern %d", c.Arrival)
	}
	// A NaN rate never advances the arrival clock, and +Inf puts every
	// arrival at t = 0.
	if !(c.RatePerSec > 0) || math.IsInf(c.RatePerSec, 1) {
		return errors.New("serve: arrival rate must be positive")
	}
	if c.QueueDepth < 1 || c.MaxInflight < 1 {
		return errors.New("serve: queue depth and max inflight must be at least 1")
	}
	if c.Backpressure != Reject && c.Backpressure != Block {
		return fmt.Errorf("serve: unknown backpressure policy %d", c.Backpressure)
	}
	if !finiteNonNeg(float64(c.BatchWindow)) {
		return fmt.Errorf("serve: batch window must be finite and >= 0, got %g", float64(c.BatchWindow))
	}
	if c.Parallel < 0 {
		return fmt.Errorf("serve: parallel must be >= 0 (0 = GOMAXPROCS), got %d", c.Parallel)
	}
	if c.Parallel == 0 {
		c.Parallel = runtime.GOMAXPROCS(0)
	}
	return nil
}

// finiteNonNeg reports whether v is a finite number >= 0 (false for NaN).
func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

func (c *Config) ctxErr() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// Outcome is a request's terminal state.
type Outcome uint8

const (
	outcomePending Outcome = iota
	OutcomeServed
	OutcomeRejectedQuota
	OutcomeRejectedQueue
	OutcomeTimedOut
	OutcomeFailed
)

// Err maps a terminal outcome onto its typed error (nil for OutcomeServed).
func (o Outcome) Err() error {
	switch o {
	case OutcomeRejectedQuota:
		return ErrQuotaExceeded
	case OutcomeRejectedQueue:
		return ErrQueueFull
	case OutcomeTimedOut:
		return ErrDeadline
	case OutcomeFailed:
		return errors.New("serve: request failed")
	}
	return nil
}

// request is the replay state of one trace arrival; the server keeps them
// in one slice indexed like the trace, which carries the tenant and spec.
type request struct {
	arrived  sim.Time
	finished sim.Time
	tier     int32
	outcome  Outcome
	batched  bool // served as part of a fused batch
}

type unitState int

const (
	unitQueued unitState = iota
	unitSpilled
	unitServing
	unitDone
	unitDropped
)

// unit is a schedulable service unit: one request, or a fused batch of
// same-spec requests. It is its own completion record on the platform's
// FairServer (JobDone) and its own queueing-deadline event (Fire).
type unit struct {
	s          *server
	platform   int
	spec       RequestSpec
	members    []*request
	one        [1]*request // members' backing array for a singleton
	demand     float64     // inner-simulation makespan, seconds
	flops      float64     // useful work, for goodput
	deadlineAt sim.Time    // earliest member deadline; 0 = none
	state      unitState
}

// JobDone implements sim.JobDone: the unit's service has completed.
func (u *unit) JobDone(_, end sim.Time) {
	u.s.complete(u.s.plats[u.platform], u, end)
}

// Fire implements sim.Handler: the unit's queueing deadline. It is a no-op
// once the unit has left the wait lists.
func (u *unit) Fire() {
	if u.state != unitQueued && u.state != unitSpilled {
		return
	}
	s, p := u.s, u.s.plats[u.platform]
	u.state = unitDropped
	p.backlog -= u.demand
	s.finishUnit(u, OutcomeTimedOut, s.eng.Now())
	s.admitNext(p)
}

// tenantState is a token bucket plus the tenant's tier.
type tenantState struct {
	tier   int
	tokens float64
	last   sim.Time
}

// platformState is one fleet machine: its fair-share capacity, bounded
// admission queue, optional spill, and counters.
type platformState struct {
	name        string
	cap         *sim.FairServer
	inflight    int
	inflightHi  int
	queue       []*unit
	spill       []*unit
	queueHi     int     // high-water of queue+spill depth
	backlog     float64 // committed, uncompleted service seconds (routing signal)
	servedUnits int
	fusedUnits  int // units that carried more than one request
}

type server struct {
	cfg       *Config
	eng       *sim.Engine
	demands   *demandTable
	tenants   []tenantState
	plats     []*platformState
	batches   map[RequestSpec]*pendingBatch
	timerFree []*batchTimer
	reqs      []request

	servedFlops float64
	err         error
}

type pendingBatch struct {
	spec    RequestSpec
	members []*request // reused across flushes; a unit copies them
	gen     int        // invalidates stale window-flush timers
}

// batchTimer is a pooled batching-window timer: when the window closes it
// flushes its batch, unless a full batch already flushed that generation.
type batchTimer struct {
	s   *server
	b   *pendingBatch
	gen int
}

// Fire implements sim.Handler.
func (t *batchTimer) Fire() {
	s, b, gen := t.s, t.b, t.gen
	t.b = nil
	s.timerFree = append(s.timerFree, t)
	if b.gen == gen && len(b.members) > 0 {
		s.flushBatch(b)
	}
}

// assignTiers splits the tenant population into contiguous tier blocks
// proportional to tier weights (arrivals pick tenants uniformly, so tier
// traffic shares follow the weights).
func assignTiers(cfg *Config) []tenantState {
	total := 0.0
	for _, t := range cfg.Tiers {
		total += t.Weight
	}
	tenants := make([]tenantState, cfg.Tenants)
	cum := 0.0
	next := 0
	for ti, t := range cfg.Tiers {
		cum += t.Weight
		end := int(cum / total * float64(cfg.Tenants))
		if ti == len(cfg.Tiers)-1 {
			end = cfg.Tenants
		}
		for ; next < end; next++ {
			tenants[next] = tenantState{tier: ti, tokens: t.Burst}
		}
	}
	return tenants
}

// Run executes one serving scenario: generates the seeded trace, prewarms
// the demand table (the only concurrent phase), then replays the trace on
// the outer engine and reports.
func Run(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	trace := GenerateTrace(&cfg)

	dt := newDemandTable(&cfg)
	if err := dt.prewarm(trace); err != nil {
		return nil, err
	}

	s := &server{
		cfg:     &cfg,
		eng:     sim.NewEngine(),
		demands: dt,
		tenants: assignTiers(&cfg),
		batches: make(map[RequestSpec]*pendingBatch),
	}
	for _, name := range cfg.Fleet {
		s.plats = append(s.plats, &platformState{
			name: name,
			cap:  sim.NewFairServer(s.eng, fmt.Sprintf("serve.%s", name), 1.0),
		})
	}
	// Arrivals stream from the trace rather than sitting in the event heap:
	// each one fires before any event at its own instant, exactly as if all
	// of them had been scheduled up front (see sim.Engine.RunBefore), so the
	// heap holds only in-flight work. RunBefore panics if the trace ever
	// went back in time; GenerateTrace's times never decrease.
	s.reqs = make([]request, len(trace))
	for i := range trace {
		a := &trace[i]
		req := &s.reqs[i]
		*req = request{tier: int32(s.tenants[a.Tenant].tier), arrived: a.At}
		if s.eng.RunBefore(a.At); s.eng.Stopped() {
			break
		}
		s.onArrival(req, a)
	}
	s.eng.Run()
	if s.err != nil {
		return nil, s.err
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	return buildReport(&cfg, s), nil
}

func (s *server) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.eng.Stop()
}

// onArrival runs the admission pipeline for one request: quota, then
// batching or direct dispatch.
func (s *server) onArrival(req *request, a *Arrival) {
	if err := s.cfg.ctxErr(); err != nil {
		s.fail(err)
		return
	}
	now := s.eng.Now()
	tn := &s.tenants[a.Tenant]
	tier := &s.cfg.Tiers[req.tier]
	tn.tokens += float64(now-tn.last) * tier.RefillPerSec
	if tn.tokens > tier.Burst {
		tn.tokens = tier.Burst
	}
	tn.last = now
	if tn.tokens < 1 {
		s.finish(req, OutcomeRejectedQuota, now)
		return
	}
	tn.tokens--

	if s.cfg.BatchMax > 1 && a.Spec.Count <= 1 && a.Spec.N < s.cfg.BatchThresholdN {
		s.addToBatch(req, a.Spec)
		return
	}
	s.dispatch(s.newUnit(a.Spec, req))
}

// addToBatch parks a sub-threshold request in its spec's pending batch,
// flushing on BatchMax or after the batching window.
func (s *server) addToBatch(req *request, spec RequestSpec) {
	req.batched = true
	b := s.batches[spec]
	if b == nil {
		b = &pendingBatch{spec: spec}
		s.batches[spec] = b
	}
	b.members = append(b.members, req)
	if len(b.members) >= s.cfg.BatchMax {
		s.flushBatch(b)
		return
	}
	if len(b.members) == 1 {
		var t *batchTimer
		if n := len(s.timerFree); n > 0 {
			t = s.timerFree[n-1]
			s.timerFree = s.timerFree[:n-1]
		} else {
			t = &batchTimer{s: s}
		}
		t.b, t.gen = b, b.gen
		s.eng.AtHandler(s.eng.Now()+s.cfg.BatchWindow, t)
	}
}

func (s *server) flushBatch(b *pendingBatch) {
	u := s.newUnit(b.spec, b.members...)
	clear(b.members)
	b.members = b.members[:0]
	b.gen++
	s.dispatch(u)
}

// newUnit builds a unit over a copy of members; a singleton is held inline.
func (s *server) newUnit(spec RequestSpec, members ...*request) *unit {
	u := &unit{s: s, spec: spec}
	if len(members) == 1 {
		u.one[0] = members[0]
		u.members = u.one[:]
	} else {
		u.members = append([]*request(nil), members...)
	}
	for _, m := range members {
		if d := s.cfg.Tiers[m.tier].Deadline; d > 0 {
			at := m.arrived + d
			if u.deadlineAt == 0 || at < u.deadlineAt {
				u.deadlineAt = at
			}
		}
	}
	return u
}

// dispatch routes a unit to the least-backlogged platform and runs the
// bounded-queue admission decision.
func (s *server) dispatch(u *unit) {
	best := 0
	for i := 1; i < len(s.plats); i++ {
		if s.plats[i].backlog < s.plats[best].backlog {
			best = i
		}
	}
	u.platform = best
	p := s.plats[best]

	d := s.demands.get(demandKey{platform: best, spec: u.spec, count: len(u.members)})
	if d.err != nil {
		if err := s.cfg.ctxErr(); err != nil {
			s.fail(err)
			return
		}
		s.finishUnit(u, OutcomeFailed, s.eng.Now())
		return
	}
	u.demand, u.flops = d.seconds, d.flops
	p.backlog += u.demand

	if p.inflight < s.cfg.MaxInflight && len(p.queue) == 0 {
		s.start(p, u)
		return
	}
	if len(p.queue) < s.cfg.QueueDepth {
		s.enqueue(p, u, &p.queue, unitQueued)
		return
	}
	if s.cfg.Backpressure == Block {
		s.enqueue(p, u, &p.spill, unitSpilled)
		return
	}
	p.backlog -= u.demand
	s.finishUnit(u, OutcomeRejectedQueue, s.eng.Now())
}

// enqueue parks a unit in a wait list and arms its queueing deadline.
func (s *server) enqueue(p *platformState, u *unit, list *[]*unit, st unitState) {
	u.state = st
	*list = append(*list, u)
	if depth := len(p.queue) + len(p.spill); depth > p.queueHi {
		p.queueHi = depth
	}
	if u.deadlineAt > 0 {
		at := u.deadlineAt
		if now := s.eng.Now(); at < now {
			at = now // batching window may have consumed the whole patience
		}
		s.eng.AtHandler(at, u)
	}
}

// start hands a unit to the platform's fair-share capacity.
func (s *server) start(p *platformState, u *unit) {
	u.state = unitServing
	p.inflight++
	if p.inflight > p.inflightHi {
		p.inflightHi = p.inflight
	}
	p.cap.Submit(u.demand, 0, u)
}

// complete retires a served unit and pulls waiting work forward. It runs
// inside the FairServer's completion callback — the re-entrant Submit in
// admitNext is exactly the path the fair-share server's two-phase
// completion exists for.
func (s *server) complete(p *platformState, u *unit, end sim.Time) {
	u.state = unitDone
	p.inflight--
	p.backlog -= u.demand
	p.servedUnits++
	if len(u.members) > 1 {
		p.fusedUnits++
	}
	s.servedFlops += u.flops
	for _, m := range u.members {
		m.outcome = OutcomeServed
		m.finished = end
	}
	s.admitNext(p)
}

// popLive pops the first unit that hasn't been dropped by its deadline.
func popLive(list *[]*unit) *unit {
	for len(*list) > 0 {
		u := (*list)[0]
		(*list)[0] = nil
		*list = (*list)[1:]
		if u.state != unitDropped {
			return u
		}
	}
	return nil
}

// admitNext refills the bounded queue from the spill and starts queued
// units while inflight capacity remains.
func (s *server) admitNext(p *platformState) {
	for {
		for len(p.queue) < s.cfg.QueueDepth {
			u := popLive(&p.spill)
			if u == nil {
				break
			}
			u.state = unitQueued
			p.queue = append(p.queue, u)
		}
		if p.inflight >= s.cfg.MaxInflight {
			return
		}
		u := popLive(&p.queue)
		if u == nil {
			return
		}
		s.start(p, u)
	}
}

func (s *server) finishUnit(u *unit, o Outcome, at sim.Time) {
	u.state = unitDropped
	for _, m := range u.members {
		s.finish(m, o, at)
	}
}

func (s *server) finish(req *request, o Outcome, at sim.Time) {
	req.outcome = o
	req.finished = at
}

// sortSpecs orders request specs deterministically (routine, N, NB, Count).
func sortSpecs(specs []RequestSpec) {
	sort.Slice(specs, func(i, j int) bool {
		a, b := specs[i], specs[j]
		if a.Routine != b.Routine {
			return a.Routine < b.Routine
		}
		if a.N != b.N {
			return a.N < b.N
		}
		if a.NB != b.NB {
			return a.NB < b.NB
		}
		return a.Count < b.Count
	})
}
