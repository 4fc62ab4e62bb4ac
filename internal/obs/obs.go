// Package obs is the crawl observability subsystem: atomic counters and
// gauges, fixed-bucket latency histograms, and a structured JSONL session
// tracer (schema in docs/TRACE_SCHEMA.md). It exists because SMARTCRAWL's
// value claim is per-query efficiency under a hard budget — tuning the
// crawler requires seeing benefit-estimate quality, retry and rate-limit
// pressure, fault-injection and circuit-breaker activity under a degraded
// interface, and where wall-clock goes inside the Algorithm-4 loop, not
// just the final coverage number.
//
// Everything hangs off *Obs, a nil-safe sink: every method is a no-op on a
// nil receiver, so instrumented code calls hooks unconditionally and the
// disabled path costs a single branch. The package depends only on the
// standard library and the trace schema (package trace), and must never
// perturb crawl results — hooks observe, they do not decide
// (regression-tested: tracing on vs off produces byte-identical
// issued-query logs).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smartcrawl/internal/trace"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable instantaneous value. The zero value is
// ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatSum is an atomically accumulated float64 (CAS on the bit pattern).
// The zero value is ready to use.
type FloatSum struct{ bits atomic.Uint64 }

// Add accumulates v.
func (f *FloatSum) Add(v float64) {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		if f.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Value returns the accumulated sum.
func (f *FloatSum) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// Obs is the observability sink threaded through the crawl stack. All
// fields are safe for concurrent update; all methods are safe to call on a
// nil *Obs (they become a branch and nothing else), which is how the
// disabled path stays free.
type Obs struct {
	// Crawl-loop counters (merge stage, single writer).
	QueriesIssued  Counter // queries absorbed into the crawl result
	RecordsCovered Counter // local records newly covered
	SolidQueries   Counter // issued queries with |result| < k
	Rounds         Counter // selection rounds (batches popped)
	Dispatched     Counter // queries handed to the worker pool
	EstimateCalls  Counter // estimator Benefit() invocations
	Allocs         Counter // federated budget allocations (rounds granted to an interface)

	// Interface-pressure counters (worker pool, many writers).
	SearchErrors Counter // failed searches (budget exhaustion excluded)
	RetriedCalls Counter // searches that needed at least one retry
	Retries      Counter // individual re-attempts
	RateLimited  Counter // client-side token-bucket denials
	Checkpoints  Counter // checkpoint writes

	// Resilience counters (fault injection and graceful degradation).
	FaultsInjected    Counter // faults injected by a deepweb.Faulty wrapper
	Truncations       Counter // results absorbed partially (short pages)
	Requeues          Counter // failed selections pushed back into the pool
	Forfeits          Counter // selections given up after their attempt cap
	Refunds           Counter // budget units refunded (never charged by the interface)
	BreakerTrips      Counter // circuit-breaker transitions into open
	BreakerState      Gauge   // current breaker position (0 closed, 1 open, 2 half-open)
	DeadlineForfeits  Counter // forfeits attributed to the crawl deadline (subset of Forfeits)
	RetryBudgetDenied Counter // requeues refused because the retry budget was dry (subset of Forfeits)

	// Durability counters (WAL journal and crash recovery).
	WalAppends Counter // records appended to the write-ahead journal
	WalBytes   Counter // journal bytes written (headers included)
	WalFsyncs  Counter // journal fsync calls
	Recoveries Counter // crash recoveries performed (snapshot and/or journal replayed)

	// WalFsyncLatency observes one duration per journal fsync — the
	// price of the chosen durability policy, separated from search
	// latency so slow disks and slow interfaces don't blur together.
	WalFsyncLatency Histogram

	// Index construction.
	IndexBuilds Counter
	IndexShards Gauge // shard count of the most recent build

	// BucketTokens is the token count observed at the most recent
	// rate-limit denial, in milli-tokens (gauges are integral).
	BucketTokens Gauge

	// SearchLatency observes one duration per dispatched query.
	SearchLatency Histogram

	// Estimate-vs-realized benefit accounting: each absorbed query
	// contributes its estimated benefit and the coverage delta it
	// actually produced, so estimator bias and MAE fall out of a run.
	BenefitPairs  Counter
	BenefitEst    FloatSum
	BenefitReal   FloatSum
	BenefitAbsErr FloatSum

	// now is the clock used for phase timing; nil means time.Now.
	// Tests inject a fake for deterministic trace output.
	now func() time.Time

	tracer atomic.Pointer[Tracer]

	mu       sync.Mutex
	phaseDur map[string]time.Duration
	phaseSeq []string // insertion order, for stable summaries

	faultMu sync.Mutex
	faultBy map[string]int64 // injected-fault counts by class

	ifaceMu  sync.Mutex
	ifaceBy  map[string]*IfaceMetrics // per-interface metrics of a federated crawl
	ifaceSeq []string                 // registration order, for stable summaries
}

// IfaceMetrics aggregates the per-interface counters of a federated crawl:
// which interface the shared budget was spent on and what it bought. Handles
// are obtained through Obs.Iface and registered once per interface name;
// single-interface crawls never register any, so their snapshots and
// summaries carry no interface section and stay byte-identical.
type IfaceMetrics struct {
	Queries  Counter // queries absorbed from this interface
	Covered  Counter // local records this interface's results newly covered
	Solid    Counter // absorbed queries solid under this interface's k
	Allocs   Counter // rounds the allocator granted this interface
	Errors   Counter // failed dispatches recorded against this interface
	Requeues Counter // failed selections requeued after failing here
	Forfeits Counter // selections forfeited after failing here
	Holds    Counter // rounds held by this interface's circuit breaker
	// HealthScore is the interface's current health score in milli-units
	// (1000 = fully healthy). Zero means health scoring is disabled —
	// the crawler sets it to 1000 at start when enabled, so exporters
	// can gate the health families on a non-zero value.
	HealthScore Gauge
	Probes      Counter // recovery-probe rounds granted while degraded
}

// Iface returns (registering on first use) the metrics handle for the named
// interface. Returns nil on a nil sink or an empty name, and every
// IfaceMetrics update site must tolerate a nil handle.
func (o *Obs) Iface(name string) *IfaceMetrics {
	if o == nil || name == "" {
		return nil
	}
	o.ifaceMu.Lock()
	defer o.ifaceMu.Unlock()
	if o.ifaceBy == nil {
		o.ifaceBy = make(map[string]*IfaceMetrics)
	}
	m, ok := o.ifaceBy[name]
	if !ok {
		m = &IfaceMetrics{}
		o.ifaceBy[name] = m
		o.ifaceSeq = append(o.ifaceSeq, name)
	}
	return m
}

// IfaceNames returns the registered interface names in registration order.
func (o *Obs) IfaceNames() []string {
	if o == nil {
		return nil
	}
	o.ifaceMu.Lock()
	defer o.ifaceMu.Unlock()
	return append([]string(nil), o.ifaceSeq...)
}

// New returns an empty, enabled sink. The zero value &Obs{} is equivalent.
func New() *Obs { return &Obs{} }

// WithClock replaces the phase-timing clock (tests inject a fake for
// deterministic trace durations) and returns o.
func (o *Obs) WithClock(now func() time.Time) *Obs {
	o.now = now
	return o
}

// Enabled reports whether the sink collects anything. A nil *Obs is the
// disabled sink.
func (o *Obs) Enabled() bool { return o != nil }

// SetTracer attaches a session tracer; nil detaches. Safe to call
// concurrently with hooks.
func (o *Obs) SetTracer(t *Tracer) {
	if o == nil {
		return
	}
	o.tracer.Store(t)
}

// Tracer returns the attached tracer, or nil.
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer.Load()
}

func (o *Obs) clock() time.Time {
	if o.now != nil {
		return o.now()
	}
	return time.Now()
}

// Query records one absorbed query: counters, the estimate-vs-realized
// benefit pair, and a trace event. Called by the merge stage (single
// goroutine) after every issued query, for every crawl framework.
func (o *Obs) Query(q string, est float64, resultSize, newCovered, cumCovered int, solid bool) {
	o.QueryIface("", q, est, resultSize, newCovered, cumCovered, solid)
}

// QueryIface is Query tagged with the issuing interface of a federated
// crawl. An empty iface is the single-interface path: the trace line is
// emitted untagged, byte-identical to the pre-federation format.
func (o *Obs) QueryIface(iface, q string, est float64, resultSize, newCovered, cumCovered int, solid bool) {
	if o == nil {
		return
	}
	o.QueriesIssued.Inc()
	o.RecordsCovered.Add(int64(newCovered))
	if solid {
		o.SolidQueries.Inc()
	}
	o.BenefitPairs.Inc()
	o.BenefitEst.Add(est)
	o.BenefitReal.Add(float64(newCovered))
	o.BenefitAbsErr.Add(math.Abs(est - float64(newCovered)))
	if t := o.tracer.Load(); t != nil {
		t.emit(trace.EventQuery, &trace.Query{Query: q, EstBenefit: est, ResultSize: resultSize,
			NewCovered: newCovered, CumCovered: cumCovered, Solid: solid, Iface: iface})
	}
}

// Alloc records one federated budget allocation: the named interface won
// the round with the given top estimated benefit, with budgetLeft queries
// remaining (-1 = unlimited) before the round is sized.
func (o *Obs) Alloc(iface string, benefit float64, budgetLeft int) {
	if o == nil {
		return
	}
	o.Allocs.Inc()
	if t := o.tracer.Load(); t != nil {
		t.emit(trace.EventAlloc, &trace.Alloc{Iface: iface, EstBenefit: benefit, BudgetLeft: budgetLeft})
	}
}

// SearchServed records one served search on the interface side (the
// hiddenserver): a query counter and a trace event, but no benefit pair —
// the server has no estimate to compare against.
func (o *Obs) SearchServed(q string, resultSize int, solid bool) {
	if o == nil {
		return
	}
	o.QueriesIssued.Inc()
	if solid {
		o.SolidQueries.Inc()
	}
	if t := o.tracer.Load(); t != nil {
		t.emit(trace.EventQuery, &trace.Query{Query: q, ResultSize: resultSize, Solid: solid})
	}
}

// Round records one selection round of size n with budgetLeft queries
// remaining (-1 = unlimited) before the round is dispatched.
func (o *Obs) Round(n, budgetLeft int) {
	if o == nil {
		return
	}
	o.Rounds.Inc()
	o.Dispatched.Add(int64(n))
	if t := o.tracer.Load(); t != nil {
		t.emit(trace.EventRound, &trace.Round{Size: n, BudgetLeft: budgetLeft})
	}
}

// SearchDone observes one dispatched query's round-trip latency. failed
// marks real errors (budget exhaustion is a clean stop, not a failure).
func (o *Obs) SearchDone(d time.Duration, failed bool) {
	if o == nil {
		return
	}
	o.SearchLatency.Observe(d)
	if failed {
		o.SearchErrors.Inc()
	}
}

// Retry records re-attempt number attempt (1-based) of query q after wait,
// caused by cause (the previous attempt's error).
func (o *Obs) Retry(q string, attempt int, wait time.Duration, cause error) {
	if o == nil {
		return
	}
	o.Retries.Inc()
	if attempt == 1 {
		o.RetriedCalls.Inc()
	}
	if t := o.tracer.Load(); t != nil {
		t.emit(trace.EventRetry, &trace.Retry{Query: q, Attempt: attempt, WaitMs: wait.Milliseconds(), Err: errMsg(cause)})
	}
}

// RateLimitDenied records a client-side token-bucket denial of query q,
// with the bucket's token count at denial time.
func (o *Obs) RateLimitDenied(q string, tokens float64) {
	if o == nil {
		return
	}
	o.RateLimited.Inc()
	o.BucketTokens.Set(int64(tokens * 1000))
	if t := o.tracer.Load(); t != nil {
		t.emit(trace.EventRateLimit, &trace.RateLimit{Query: q, Tokens: tokens})
	}
}

// FaultInjected records one injected fault: the query it hit, its class
// (deepweb.FaultClass), and the per-query attempt number it fired on.
func (o *Obs) FaultInjected(q, class string, attempt int) {
	if o == nil {
		return
	}
	o.FaultsInjected.Inc()
	o.faultMu.Lock()
	if o.faultBy == nil {
		o.faultBy = make(map[string]int64)
	}
	o.faultBy[class]++
	o.faultMu.Unlock()
	if t := o.tracer.Load(); t != nil {
		t.emit(trace.EventFault, &trace.Fault{Query: q, Class: class, Attempt: attempt})
	}
}

// FaultsByClass returns a copy of the injected-fault counts keyed by class.
func (o *Obs) FaultsByClass() map[string]int64 {
	if o == nil {
		return nil
	}
	o.faultMu.Lock()
	defer o.faultMu.Unlock()
	out := make(map[string]int64, len(o.faultBy))
	for c, n := range o.faultBy {
		out[c] = n
	}
	return out
}

// BreakerTransition records a circuit-breaker state change with the
// consecutive-failure count that drove it.
func (o *Obs) BreakerTransition(from, to string, failures int) {
	if o == nil {
		return
	}
	if to == "open" {
		o.BreakerTrips.Inc()
	}
	switch to {
	case "closed":
		o.BreakerState.Set(0)
	case "open":
		o.BreakerState.Set(1)
	case "half_open":
		o.BreakerState.Set(2)
	}
	if t := o.tracer.Load(); t != nil {
		t.emit(trace.EventBreaker, &trace.Breaker{From: from, To: to, Failures: failures})
	}
}

// Requeued records a failed selection pushed back into the pool for
// re-dispatch: the query, which attempt just failed, and why.
func (o *Obs) Requeued(q string, attempt int, cause error) {
	if o == nil {
		return
	}
	o.Requeues.Inc()
	if t := o.tracer.Load(); t != nil {
		t.emit(trace.EventRequeue, &trace.Requeue{Query: q, Attempt: attempt, Err: errMsg(cause)})
	}
}

// Forfeited records a selection given up for good after attempts
// dispatches, with the error that ended it.
func (o *Obs) Forfeited(q string, attempts int, cause error) {
	if o == nil {
		return
	}
	o.Forfeits.Inc()
	if t := o.tracer.Load(); t != nil {
		t.emit(trace.EventForfeit, &trace.Forfeit{Query: q, Attempts: attempts, Err: errMsg(cause)})
	}
}

// DeadlineForfeited records a forfeit attributed to the crawl deadline:
// the query was interrupted mid-search with no time left to retry. Emitted
// IN ADDITION to the generic Forfeited hook for the same query, so generic
// forfeit consumers see every forfeit and deadline-aware ones can subtract.
func (o *Obs) DeadlineForfeited(q string, attempts int) {
	if o == nil {
		return
	}
	o.DeadlineForfeits.Inc()
	if t := o.tracer.Load(); t != nil {
		t.emit(trace.EventDeadlineForfeit, &trace.DeadlineForfeit{Query: q, Attempt: attempts})
	}
}

// RetryDenied records a requeue the retry budget refused (the bucket was
// dry); the query is forfeited, and the matching Forfeited hook carries it.
func (o *Obs) RetryDenied(q string) {
	if o == nil {
		return
	}
	o.RetryBudgetDenied.Inc()
	_ = q // counter-only; the forfeit event carries the query
}

// Health records an interface health-score movement (score in [0,1]) or,
// with probe set, a recovery-probe round granted to a degraded interface.
// Clean runs never call it — scores stay exactly 1.0 — so traces without
// failures carry no health events.
func (o *Obs) Health(iface string, score float64, probe bool) {
	if o == nil {
		return
	}
	if t := o.tracer.Load(); t != nil {
		t.emit(trace.EventHealth, &trace.Health{Iface: iface, Score: score, Probe: probe})
	}
}

// Refunded counts one budget unit returned because the failed query was
// never charged by the interface (client-side denial or cancellation).
func (o *Obs) Refunded(q string) {
	if o == nil {
		return
	}
	o.Refunds.Inc()
	_ = q // counter-only; the forfeit/requeue event carries the query
}

// Truncated counts one result absorbed partially: the interface matched
// full records but returned only the first returned of them.
func (o *Obs) Truncated(q string, returned, full int) {
	if o == nil {
		return
	}
	o.Truncations.Inc()
	_, _, _ = q, returned, full // counter-only; the fault event carries detail
}

func errMsg(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Checkpoint records a checkpoint write: covered records and queries spent
// at save time.
func (o *Obs) Checkpoint(path string, covered, queries int) {
	if o == nil {
		return
	}
	o.Checkpoints.Inc()
	if t := o.tracer.Load(); t != nil {
		t.emit(trace.EventCheckpoint, &trace.Checkpoint{Path: path, Covered: covered, Queries: queries})
	}
}

// WalAppend records one record appended to the write-ahead journal: its
// kind (begin/round/step/requeue/forfeit/budget_stop), its journal
// sequence number, and its on-disk size including the length/CRC header.
func (o *Obs) WalAppend(kind string, walSeq uint64, bytes int) {
	if o == nil {
		return
	}
	o.WalAppends.Inc()
	o.WalBytes.Add(int64(bytes))
	if t := o.tracer.Load(); t != nil {
		t.emit(trace.EventWalAppend, &trace.WalAppend{Kind: kind, WalSeq: walSeq, Bytes: bytes})
	}
}

// WalFsynced observes one journal fsync and its latency.
func (o *Obs) WalFsynced(d time.Duration) {
	if o == nil {
		return
	}
	o.WalFsyncs.Inc()
	o.WalFsyncLatency.Observe(d)
}

// Recovered records one crash recovery: the snapshot path, how many
// journal records were replayed on top of it, the recovered coverage and
// query counts, the last journal sequence number seen, and whether a torn
// tail record was discarded.
func (o *Obs) Recovered(path string, records, covered, queries int, walSeq uint64, torn bool) {
	if o == nil {
		return
	}
	o.Recoveries.Inc()
	if t := o.tracer.Load(); t != nil {
		t.emit(trace.EventRecovered, &trace.Recovered{Path: path, Records: records, Covered: covered,
			Queries: queries, WalSeq: walSeq, Torn: torn})
	}
}

// EstimateComputed counts one estimator Benefit() call — the hottest hook
// (heap rescoring), so it is a single atomic add.
func (o *Obs) EstimateComputed() {
	if o == nil {
		return
	}
	o.EstimateCalls.Inc()
}

// IndexBuilt records one inverted-index build over the given shard count.
func (o *Obs) IndexBuilt(shards int) {
	if o == nil {
		return
	}
	o.IndexBuilds.Inc()
	o.IndexShards.Set(int64(shards))
}

// Phase starts a named wall-clock phase and returns its stop function:
//
//	defer o.Phase("pool_generate")()
//
// Stop accumulates the duration (phases can run more than once) and emits
// a trace event. On a nil sink both calls are no-ops.
func (o *Obs) Phase(name string) func() {
	if o == nil {
		return func() {}
	}
	start := o.clock()
	return func() {
		d := o.clock().Sub(start)
		o.mu.Lock()
		if o.phaseDur == nil {
			o.phaseDur = make(map[string]time.Duration)
		}
		if _, seen := o.phaseDur[name]; !seen {
			o.phaseSeq = append(o.phaseSeq, name)
		}
		o.phaseDur[name] += d
		o.mu.Unlock()
		if t := o.tracer.Load(); t != nil {
			t.emit(trace.EventPhase, &trace.Phase{Phase: name, DurMs: d.Milliseconds()})
		}
	}
}

// PhaseDurations returns the accumulated phase durations in start order.
func (o *Obs) PhaseDurations() ([]string, []time.Duration) {
	if o == nil {
		return nil, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	names := make([]string, len(o.phaseSeq))
	durs := make([]time.Duration, len(o.phaseSeq))
	copy(names, o.phaseSeq)
	for i, n := range names {
		durs[i] = o.phaseDur[n]
	}
	return names, durs
}

// Snapshot renders every metric into a JSON-marshalable map — the expvar
// payload for /debug/vars and the raw form of the end-of-run summary.
func (o *Obs) Snapshot() map[string]any {
	if o == nil {
		return nil
	}
	m := map[string]any{
		"queries_issued":  o.QueriesIssued.Value(),
		"records_covered": o.RecordsCovered.Value(),
		"solid_queries":   o.SolidQueries.Value(),
		"rounds":          o.Rounds.Value(),
		"dispatched":      o.Dispatched.Value(),
		"estimate_calls":  o.EstimateCalls.Value(),
		"search_errors":   o.SearchErrors.Value(),
		"retried_calls":   o.RetriedCalls.Value(),
		"retries":         o.Retries.Value(),
		"rate_limited":    o.RateLimited.Value(),
		"checkpoints":     o.Checkpoints.Value(),
		"index_builds":    o.IndexBuilds.Value(),
		"index_shards":    o.IndexShards.Value(),
	}
	if o.FaultsInjected.Value()+o.Requeues.Value()+o.Forfeits.Value()+
		o.Refunds.Value()+o.Truncations.Value()+o.BreakerTrips.Value() > 0 {
		res := map[string]any{
			"faults_injected": o.FaultsInjected.Value(),
			"truncations":     o.Truncations.Value(),
			"requeues":        o.Requeues.Value(),
			"forfeits":        o.Forfeits.Value(),
			"refunds":         o.Refunds.Value(),
			"breaker_trips":   o.BreakerTrips.Value(),
			"breaker_state":   o.BreakerState.Value(),
		}
		// Cause-attributed forfeit classes, present only when they fired so
		// pre-existing snapshots stay byte-identical.
		if v := o.DeadlineForfeits.Value(); v > 0 {
			res["deadline_forfeits"] = v
		}
		if v := o.RetryBudgetDenied.Value(); v > 0 {
			res["retry_budget_denied"] = v
		}
		if by := o.FaultsByClass(); len(by) > 0 {
			res["fault_classes"] = by
		}
		m["resilience"] = res
	}
	if names := o.IfaceNames(); len(names) > 0 {
		ifs := make(map[string]any, len(names))
		for _, name := range names {
			im := o.Iface(name)
			fields := map[string]any{
				"queries_issued":  im.Queries.Value(),
				"records_covered": im.Covered.Value(),
				"solid_queries":   im.Solid.Value(),
				"allocs":          im.Allocs.Value(),
				"search_errors":   im.Errors.Value(),
				"requeues":        im.Requeues.Value(),
				"forfeits":        im.Forfeits.Value(),
				"breaker_holds":   im.Holds.Value(),
			}
			// Health keys appear only when scoring is enabled (the crawler
			// initializes the gauge to 1000), keeping older snapshots stable.
			if hs := im.HealthScore.Value(); hs > 0 {
				fields["health_score"] = hs
				fields["probes"] = im.Probes.Value()
			}
			ifs[name] = fields
		}
		m["interfaces"] = ifs
		m["allocs"] = o.Allocs.Value()
	}
	if o.WalAppends.Value()+o.Recoveries.Value() > 0 {
		dur := map[string]any{
			"wal_appends": o.WalAppends.Value(),
			"wal_bytes":   o.WalBytes.Value(),
			"wal_fsyncs":  o.WalFsyncs.Value(),
			"recoveries":  o.Recoveries.Value(),
		}
		if hs := o.WalFsyncLatency.Snapshot(); hs.Count > 0 {
			dur["fsync_latency"] = map[string]any{
				"count":   hs.Count,
				"mean_ms": roundMs(hs.Mean),
				"p95_ms":  roundMs(hs.P95),
				"max_ms":  roundMs(hs.Max),
			}
		}
		m["durability"] = dur
	}
	if hs := o.SearchLatency.Snapshot(); hs.Count > 0 {
		m["search_latency"] = map[string]any{
			"count":   hs.Count,
			"mean_ms": roundMs(hs.Mean),
			"p50_ms":  roundMs(hs.P50),
			"p95_ms":  roundMs(hs.P95),
			"p99_ms":  roundMs(hs.P99),
			"max_ms":  roundMs(hs.Max),
		}
	}
	if n := o.BenefitPairs.Value(); n > 0 {
		m["benefit"] = map[string]any{
			"pairs":         n,
			"mean_estimate": round3(o.BenefitEst.Value() / float64(n)),
			"mean_realized": round3(o.BenefitReal.Value() / float64(n)),
			"mae":           round3(o.BenefitAbsErr.Value() / float64(n)),
		}
	}
	if names, durs := o.PhaseDurations(); len(names) > 0 {
		ph := make(map[string]any, len(names))
		for i, name := range names {
			ph[name] = roundMs(durs[i])
		}
		m["phase_ms"] = ph
	}
	return m
}

// SnapshotBrief renders the handful of counters worth watching per job
// on a multi-crawl daemon's /debug/vars — progress, pressure, and WAL
// activity — without the full Snapshot payload, so a crawld serving many
// concurrent jobs keeps its metrics page readable.
func (o *Obs) SnapshotBrief() map[string]any {
	if o == nil {
		return nil
	}
	return map[string]any{
		"queries_issued":  o.QueriesIssued.Value(),
		"records_covered": o.RecordsCovered.Value(),
		"rounds":          o.Rounds.Value(),
		"search_errors":   o.SearchErrors.Value(),
		"rate_limited":    o.RateLimited.Value(),
		"wal_appends":     o.WalAppends.Value(),
	}
}

// WriteSummary prints a human-readable end-of-run metrics summary.
func (o *Obs) WriteSummary(w io.Writer) {
	if o == nil {
		return
	}
	fmt.Fprintf(w, "obs: %d queries issued in %d rounds, %d records covered, %d solid\n",
		o.QueriesIssued.Value(), o.Rounds.Value(), o.RecordsCovered.Value(), o.SolidQueries.Value())
	fmt.Fprintf(w, "obs: interface: %d dispatched, %d errors, %d retried calls (%d re-attempts), %d rate-limit denials\n",
		o.Dispatched.Value(), o.SearchErrors.Value(), o.RetriedCalls.Value(),
		o.Retries.Value(), o.RateLimited.Value())
	if o.FaultsInjected.Value()+o.Requeues.Value()+o.Forfeits.Value()+
		o.Refunds.Value()+o.Truncations.Value()+o.BreakerTrips.Value() > 0 {
		fmt.Fprintf(w, "obs: resilience: %d faults injected, %d truncated results, %d requeues, %d forfeits, %d budget refunds, breaker tripped %d times\n",
			o.FaultsInjected.Value(), o.Truncations.Value(), o.Requeues.Value(),
			o.Forfeits.Value(), o.Refunds.Value(), o.BreakerTrips.Value())
	}
	if o.DeadlineForfeits.Value()+o.RetryBudgetDenied.Value() > 0 {
		fmt.Fprintf(w, "obs: adaptive: %d deadline forfeits, %d retry-budget denials\n",
			o.DeadlineForfeits.Value(), o.RetryBudgetDenied.Value())
	}
	for _, name := range o.IfaceNames() {
		im := o.Iface(name)
		fmt.Fprintf(w, "obs: interface %-12s %d allocs, %d queries, %d covered, %d solid, %d errors, %d requeues, %d forfeits, %d breaker holds\n",
			name, im.Allocs.Value(), im.Queries.Value(), im.Covered.Value(), im.Solid.Value(),
			im.Errors.Value(), im.Requeues.Value(), im.Forfeits.Value(), im.Holds.Value())
		if hs := im.HealthScore.Value(); hs > 0 {
			fmt.Fprintf(w, "obs: interface %-12s health %d/1000, %d recovery probes\n",
				name, hs, im.Probes.Value())
		}
	}
	if o.WalAppends.Value()+o.Recoveries.Value() > 0 {
		fmt.Fprintf(w, "obs: durability: %d journal records (%d bytes), %d fsyncs, %d recoveries\n",
			o.WalAppends.Value(), o.WalBytes.Value(), o.WalFsyncs.Value(), o.Recoveries.Value())
		if hs := o.WalFsyncLatency.Snapshot(); hs.Count > 0 {
			fmt.Fprintf(w, "obs: journal fsync latency: mean %.2fms p95 %.2fms max %.2fms\n",
				roundMs(hs.Mean), roundMs(hs.P95), roundMs(hs.Max))
		}
	}
	if hs := o.SearchLatency.Snapshot(); hs.Count > 0 {
		fmt.Fprintf(w, "obs: search latency: mean %.2fms p50 %.2fms p95 %.2fms p99 %.2fms max %.2fms\n",
			roundMs(hs.Mean), roundMs(hs.P50), roundMs(hs.P95), roundMs(hs.P99), roundMs(hs.Max))
	}
	if n := o.BenefitPairs.Value(); n > 0 {
		fmt.Fprintf(w, "obs: benefit estimates: mean est %.2f vs realized %.2f (MAE %.2f over %d queries, %d estimator calls)\n",
			o.BenefitEst.Value()/float64(n), o.BenefitReal.Value()/float64(n),
			o.BenefitAbsErr.Value()/float64(n), n, o.EstimateCalls.Value())
	}
	names, durs := o.PhaseDurations()
	for i, name := range names {
		fmt.Fprintf(w, "obs: phase %-16s %9.2fms\n", name, roundMs(durs[i]))
	}
}

func roundMs(d time.Duration) float64 {
	return math.Round(float64(d)/float64(time.Millisecond)*100) / 100
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// sortedKeys is a test/debug helper: stable iteration over a snapshot.
func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
