package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"xkblas/internal/blasops"
	"xkblas/internal/sim"
)

// testConfig is a small, fast scenario: one platform, one cheap spec, no
// batching noise unless a test asks for it.
func testConfig() Config {
	cfg := Defaults()
	cfg.Fleet = []string{"dgx1"}
	cfg.Tenants = 20
	cfg.Requests = 200
	cfg.RatePerSec = 100
	cfg.Parallel = 2
	cfg.Mix = []MixEntry{
		{1, RequestSpec{blasops.Gemm, 512, 512, 0}},
		{1, RequestSpec{blasops.Gemm, 2048, 1024, 0}},
	}
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGenerateTraceDeterministic pins the load generator: one seed, one
// trace — and a different seed, a different trace.
func TestGenerateTraceDeterministic(t *testing.T) {
	cfg := testConfig()
	a := GenerateTrace(&cfg)
	b := GenerateTrace(&cfg)
	if len(a) != cfg.Requests || len(b) != cfg.Requests {
		t.Fatalf("trace lengths %d/%d, want %d", len(a), len(b), cfg.Requests)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Tenant < 0 || a[i].Tenant >= cfg.Tenants {
			t.Fatalf("arrival %d names tenant %d outside [0,%d)", i, a[i].Tenant, cfg.Tenants)
		}
		if i > 0 && a[i].At < a[i-1].At {
			t.Fatalf("arrival %d at %v precedes %v", i, a[i].At, a[i-1].At)
		}
	}
	cfg2 := cfg
	cfg2.Seed = 99
	c := GenerateTrace(&cfg2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 99 generated identical traces")
	}
}

// TestReplayDeterministic is the arrival-replay determinism contract: one
// seeded trace replayed at any prewarm parallelism, on recycled library
// contexts or on the fresh ones audited runs build, yields byte-identical
// per-tenant histograms and rejection counts (compared through the full
// metrics-snapshot JSON).
func TestReplayDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.Fleet = []string{"dgx1", "dgx2"}
	base := reportJSON(t, mustRun(t, cfg))
	for _, variant := range []struct {
		name string
		mod  func(*Config)
	}{
		{"rerun", func(*Config) {}},
		{"parallel=1", func(c *Config) { c.Parallel = 1 }},
		{"parallel=8", func(c *Config) { c.Parallel = 8 }},
		{"check", func(c *Config) { c.Check = true }},
		{"check parallel=8", func(c *Config) { c.Check = true; c.Parallel = 8 }},
	} {
		c := cfg
		variant.mod(&c)
		got := reportJSON(t, mustRun(t, c))
		if !bytes.Equal(base, got) {
			t.Fatalf("%s: report JSON diverged from baseline\nbase: %s\ngot:  %s", variant.name, base, got)
		}
	}
}

// TestReplaySeedSensitivity: a different seed must actually change the
// outcome (guards against the report ignoring the replay).
func TestReplaySeedSensitivity(t *testing.T) {
	cfg := testConfig()
	a := reportJSON(t, mustRun(t, cfg))
	cfg.Seed = 7
	b := reportJSON(t, mustRun(t, cfg))
	if bytes.Equal(a, b) {
		t.Fatal("seeds 1 and 7 produced byte-identical reports")
	}
}

// TestOutcomesPartition: every request resolves to exactly one terminal
// outcome; nothing is lost or double-counted.
func TestOutcomesPartition(t *testing.T) {
	cfg := testConfig()
	rep := mustRun(t, cfg)
	if got := rep.Served + rep.Rejected + rep.TimedOut + rep.Failed; got != cfg.Requests {
		t.Fatalf("outcomes sum to %d, want %d (served %d rejected %d timedout %d failed %d)",
			got, cfg.Requests, rep.Served, rep.Rejected, rep.TimedOut, rep.Failed)
	}
	tierTotal := 0
	for _, ts := range rep.Tiers {
		tierTotal += ts.Requests
	}
	if tierTotal != cfg.Requests {
		t.Fatalf("tier requests sum to %d, want %d", tierTotal, cfg.Requests)
	}
	if rep.Served == 0 {
		t.Fatal("scenario served nothing")
	}
	if rep.Makespan <= 0 {
		t.Fatalf("makespan %v, want > 0", rep.Makespan)
	}
}

// TestBurstyRejectsAndBlockAbsorbs pins the backpressure policies against
// each other on one bursty trace: Reject bounces queue overflow with
// ErrQueueFull, Block converts all of it into latency.
func TestBurstyRejectsAndBlockAbsorbs(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 400
	cfg.RatePerSec = 400
	cfg.Arrival = Bursty

	rej := mustRun(t, cfg)
	queueRejects := 0
	for _, ts := range rej.Tiers {
		queueRejects += ts.RejectedQueue
	}
	if queueRejects == 0 {
		t.Fatal("bursty overload with Reject backpressure produced no queue rejections")
	}

	cfg.Backpressure = Block
	blk := mustRun(t, cfg)
	for _, ts := range blk.Tiers {
		if ts.RejectedQueue != 0 {
			t.Fatalf("Block backpressure still rejected %d from tier %s", ts.RejectedQueue, ts.Name)
		}
	}
	if blk.Served <= rej.Served {
		t.Fatalf("Block served %d, Reject served %d — blocking must absorb the overflow", blk.Served, rej.Served)
	}
}

// TestQuotaEnforced: a tier with a one-token bucket and no refill serves
// exactly one request per tenant and quota-rejects the rest.
func TestQuotaEnforced(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = 4
	cfg.Requests = 40
	cfg.Tiers = []Tier{{Name: "strict", Weight: 1, RefillPerSec: 0, Burst: 1}}
	rep := mustRun(t, cfg)
	ts := rep.Tiers[0]
	if ts.Served != cfg.Tenants {
		t.Fatalf("served %d, want exactly one per tenant (%d)", ts.Served, cfg.Tenants)
	}
	if ts.RejectedQuota != cfg.Requests-cfg.Tenants {
		t.Fatalf("quota-rejected %d, want %d", ts.RejectedQuota, cfg.Requests-cfg.Tenants)
	}
}

// TestDeadlineExpiresQueuedWork: with service capacity pinned to one slow
// job at a time and an impatient tier, queued requests age out with
// ErrDeadline semantics.
func TestDeadlineExpiresQueuedWork(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 60
	cfg.RatePerSec = 2000 // all arrivals land inside the first job's service time
	cfg.MaxInflight = 1
	cfg.QueueDepth = 60
	cfg.BatchMax = 1 // no batching: every request queues alone
	cfg.Mix = []MixEntry{{1, RequestSpec{blasops.Gemm, 4096, 1024, 0}}}
	cfg.Tiers = []Tier{{Name: "impatient", Weight: 1, RefillPerSec: 1000, Burst: 1000, Deadline: 0.05}}
	rep := mustRun(t, cfg)
	if rep.TimedOut == 0 {
		t.Fatal("impatient tier with saturated capacity produced no deadline expiries")
	}
	if !errors.Is(OutcomeTimedOut.Err(), ErrDeadline) {
		t.Fatal("OutcomeTimedOut must map to ErrDeadline")
	}
	if rep.Served+rep.TimedOut+rep.Rejected != cfg.Requests {
		t.Fatalf("outcomes don't partition: %+v", rep)
	}
}

// TestBatchingFusesSmallRequests: sub-threshold traffic coalesces into
// fused units, and the batch path serves more cheaply than solo dispatch
// (fewer service units than served requests).
func TestBatchingFusesSmallRequests(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 300
	cfg.RatePerSec = 600
	cfg.Mix = []MixEntry{{1, RequestSpec{blasops.Gemm, 256, 256, 0}}}
	rep := mustRun(t, cfg)
	units, fused := 0, 0
	for _, ps := range rep.Platforms {
		units += ps.ServedUnits
		fused += ps.FusedUnits
	}
	if fused == 0 {
		t.Fatal("small-matrix flood produced no fused batches")
	}
	if units >= rep.Served {
		t.Fatalf("served %d requests in %d units — batching fused nothing", rep.Served, units)
	}
	batched := 0
	for _, ts := range rep.Tiers {
		batched += ts.Batched
	}
	if batched == 0 {
		t.Fatal("no served request is accounted as batched")
	}
}

// TestBatchedRequestKindServed: a batched spec (Count > 1) is served whole
// through the host/device dispatch path, bypasses the fused-coalescing
// window even below the threshold N, and replays deterministically.
func TestBatchedRequestKindServed(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 60
	cfg.Mix = []MixEntry{{1, RequestSpec{blasops.Gemm, 256, 512, 32}}}
	if got := cfg.Mix[0].Spec.String(); got != "GEMM/N256/NB512/x32" {
		t.Fatalf("batched spec renders as %q", got)
	}
	rep := mustRun(t, cfg)
	if rep.Served == 0 {
		t.Fatal("batched request kind served nothing")
	}
	fused := 0
	for _, ps := range rep.Platforms {
		fused += ps.FusedUnits
	}
	if fused != 0 {
		t.Fatalf("batched specs must bypass the coalescing window, got %d fused units", fused)
	}
	a := reportJSON(t, rep)
	b := reportJSON(t, mustRun(t, cfg))
	if !bytes.Equal(a, b) {
		t.Fatal("batched replay is not deterministic")
	}
}

// TestOutcomeErrors pins the typed-error surface.
func TestOutcomeErrors(t *testing.T) {
	if !errors.Is(OutcomeRejectedQuota.Err(), ErrQuotaExceeded) {
		t.Fatal("quota outcome must map to ErrQuotaExceeded")
	}
	if !errors.Is(OutcomeRejectedQueue.Err(), ErrQueueFull) {
		t.Fatal("queue outcome must map to ErrQueueFull")
	}
	if !errors.Is(OutcomeTimedOut.Err(), ErrDeadline) {
		t.Fatal("timeout outcome must map to ErrDeadline")
	}
	if OutcomeServed.Err() != nil {
		t.Fatal("served outcome must map to nil")
	}
}

// TestParseHelpers covers xkserve's flag-parsing surface.
func TestParseHelpers(t *testing.T) {
	if _, err := ParseFleet("dgx1, dgx2"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFleet("nonesuch"); err == nil {
		t.Fatal("unknown platform must fail")
	}
	if _, err := ParseFleet(""); err == nil {
		t.Fatal("empty fleet must fail")
	}
	if p, err := ParseArrival("poisson"); err != nil || p != Poisson {
		t.Fatalf("poisson parse: %v %v", p, err)
	}
	if _, err := ParseArrival("fractal"); err == nil {
		t.Fatal("unknown arrival must fail")
	}
	if b, err := ParseBackpressure("block"); err != nil || b != Block {
		t.Fatalf("block parse: %v %v", b, err)
	}
	if _, err := ParseBackpressure("drop"); err == nil {
		t.Fatal("unknown backpressure must fail")
	}
}

// TestConfigValidation covers the config error surface: every row must
// make Run return an error promptly — not run, panic or hang.
func TestConfigValidation(t *testing.T) {
	nan := math.NaN()
	allTiers := func(c *Config, w float64) {
		for i := range c.Tiers {
			c.Tiers[i].Weight = w
		}
	}
	for name, mod := range map[string]func(*Config){
		"empty fleet":           func(c *Config) { c.Fleet = nil },
		"unknown platform":      func(c *Config) { c.Fleet = []string{"nonesuch"} },
		"no tiers":              func(c *Config) { c.Tiers = nil },
		"no mix":                func(c *Config) { c.Mix = nil },
		"no tenants":            func(c *Config) { c.Tenants = 0 },
		"no requests":           func(c *Config) { c.Requests = 0 },
		"bad rate":              func(c *Config) { c.RatePerSec = 0 },
		"NaN rate":              func(c *Config) { c.RatePerSec = nan },
		"+Inf rate":             func(c *Config) { c.RatePerSec = math.Inf(1) },
		"bad queue":             func(c *Config) { c.QueueDepth = 0 },
		"bad inflight":          func(c *Config) { c.MaxInflight = 0 },
		"bad parallel":          func(c *Config) { c.Parallel = -1 },
		"NaN batch window":      func(c *Config) { c.BatchWindow = sim.Time(nan) },
		"negative batch window": func(c *Config) { c.BatchWindow = -1 },
		"+Inf batch window":     func(c *Config) { c.BatchWindow = sim.Time(math.Inf(1)) },
		"negative tier weight":  func(c *Config) { c.Tiers[0].Weight = -1 },
		"NaN tier weight":       func(c *Config) { c.Tiers[1].Weight = nan },
		"zero tier weights":     func(c *Config) { allTiers(c, 0) },
		"NaN tier weights":      func(c *Config) { allTiers(c, nan) },
		"NaN refill":            func(c *Config) { c.Tiers[0].RefillPerSec = nan },
		"negative refill":       func(c *Config) { c.Tiers[0].RefillPerSec = -1 },
		"NaN burst":             func(c *Config) { c.Tiers[0].Burst = nan },
		"NaN deadline":          func(c *Config) { c.Tiers[0].Deadline = sim.Time(nan) },
		"negative deadline":     func(c *Config) { c.Tiers[0].Deadline = -1 },
		"negative mix weight":   func(c *Config) { c.Mix[0].Weight = -1 },
		"zero mix weights":      func(c *Config) { c.Mix[0].Weight, c.Mix[1].Weight = 0, 0 },
		"NaN mix weight":        func(c *Config) { c.Mix[1].Weight = nan },
		"unknown arrival":       func(c *Config) { c.Arrival = ArrivalPattern(7) },
		"unknown backpressure":  func(c *Config) { c.Backpressure = BackpressurePolicy(7) },
	} {
		cfg := testConfig()
		mod(&cfg)
		fault := make(chan string, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					fault <- fmt.Sprintf("panicked: %v", r)
				}
			}()
			if _, err := Run(cfg); err == nil {
				fault <- "accepted the config"
				return
			}
			fault <- ""
		}()
		select {
		case f := <-fault:
			if f != "" {
				t.Errorf("%s: Run %s", name, f)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Run still running after 10 s", name)
		}
	}
}

// TestCtxCancelAborts: a pre-cancelled context stops the run before any
// simulation happens.
func TestCtxCancelAborts(t *testing.T) {
	cfg := testConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx
	if _, err := Run(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestAcceptanceScaleReplay is the issue's acceptance scenario: >=1000
// requests from >=100 tenants over >=2 platforms, bursty arrivals. The
// replay must complete deterministically (two runs, byte-identical metrics
// JSON) with nonzero rejections.
func TestAcceptanceScaleReplay(t *testing.T) {
	cfg := Defaults()
	cfg.Parallel = 4
	if cfg.Requests < 1000 || cfg.Tenants < 100 || len(cfg.Fleet) < 2 || cfg.Arrival != Bursty {
		t.Fatalf("default scenario shrank below the acceptance floor: %+v", cfg)
	}
	first := mustRun(t, cfg)
	if first.Rejected == 0 {
		t.Fatal("bursty acceptance run produced no rejections")
	}
	if first.Served == 0 {
		t.Fatal("acceptance run served nothing")
	}
	a := reportJSON(t, first)
	b := reportJSON(t, mustRun(t, cfg))
	if !bytes.Equal(a, b) {
		t.Fatal("two acceptance runs produced different metrics JSON")
	}
}

// TestCheckedReplay runs the small scenario under the coherence auditor:
// every inner simulation must stay violation-free.
func TestCheckedReplay(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 60
	cfg.Check = true
	rep := mustRun(t, cfg)
	if rep.Failed != 0 {
		t.Fatalf("%d requests failed under the auditor", rep.Failed)
	}
}

// BenchmarkReplay times whole Run calls on a 20k-request bursty replay of
// the default scenario (trace generation, demand prewarm at one worker,
// the replay and the report) and reports the cost per request.
func BenchmarkReplay(b *testing.B) {
	cfg := Defaults()
	cfg.Requests = 20000
	cfg.Parallel = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	reqs := float64(b.N) * float64(cfg.Requests)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reqs, "ns/req")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/reqs, "allocs/req")
}
