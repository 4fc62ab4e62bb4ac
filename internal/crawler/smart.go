package crawler

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"time"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/querypool"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
)

// SmartConfig configures a SMARTCRAWL run.
type SmartConfig struct {
	// PoolConfig controls query-pool generation (§3.1).
	PoolConfig querypool.Config
	// Sample is the hidden-database sample Hs with its ratio θ; nil runs
	// without sample information (QSel-Simple must then be used).
	Sample *sample.Sample
	// Estimator selects the query-selection strategy:
	// estimator.Frequency{} = QSel-Simple, estimator.Biased{} =
	// QSel-Est-B (the paper's SmartCrawl-B), estimator.Unbiased{} =
	// QSel-Est-U.
	Estimator estimator.Estimator
	// AlphaFallback enables the §6.2 inadequate-sample-size fallback
	// (treat D as a second sample with ratio α = θ|D|/|Hs|).
	AlphaFallback bool
	// DisableDeltaDRemoval turns off the §4.2 optimization that removes
	// predicted-ΔD records (q(D) − q(D)_cover of a solid query) from
	// consideration. Algorithm 4 has it on; the ablation bench turns it
	// off.
	DisableDeltaDRemoval bool
	// Resume continues a previous crawl from its saved Result (see
	// SaveResult/LoadResult): covered records stay covered, previously
	// issued queries are never re-issued, and solid-query ΔD removals
	// are replayed from the step trace. A resumed run with budget b2
	// after a run with budget b1 selects exactly the queries an
	// uninterrupted run with budget b1+b2 would.
	Resume *Result
	// OnlineCalibration enables pay-as-you-go benefit estimation — the
	// paper's first future-work item (§9): instead of an upfront hidden-
	// database sample, the crawler calibrates from the queries it issues
	// anyway. Queries are bucketed by ⌈log₂|q(D₀)|⌉ and each bucket
	// tracks the mean REALIZED benefit (records newly covered per issued
	// query); an unissued query's benefit is its bucket's mean, scaled by
	// the fraction of its records still uncovered. Until a bucket has
	// enough observations it falls back to min(|q(D)|, k) (QSel-Simple
	// capped at the only hard bound available without a sample). Requires
	// Sample == nil and no explicit Estimator.
	OnlineCalibration bool
	// EagerSelection replaces the §6.3 lazy priority queue with a full
	// argmax rescan of the pool at every iteration — the naive
	// implementation Appendix B compares against. Selection results are
	// identical (same argmax, same tie-breaking); only cost differs.
	// Exposed for the E10 ablation. Incompatible with federation (the
	// allocator ranks interfaces through their lazy queues).
	EagerSelection bool
	// BatchSize > 1 enables batch-greedy selection: the top-n queries
	// are popped together and issued concurrently (the searcher must be
	// safe for concurrent use, as HTTP clients are). Later queries in a
	// batch are selected without seeing earlier results, so coverage can
	// dip slightly below sequential greedy — the classic latency/quality
	// trade against slow network interfaces. Results are absorbed in
	// selection order, keeping runs deterministic. 0 or 1 is the
	// sequential Algorithm 4.
	BatchSize int
	// Concurrency is the worker-pool size of the crawl pipeline: how
	// many goroutines issue a selection batch (deepweb.Dispatcher), and
	// how many shards the inverted-index build and FP-Growth mining are
	// partitioned into. It is a pure wall-clock knob — results are
	// merged into the delta-update loop in selection order by a single
	// writer, so at a fixed seed the coverage and the issued-query log
	// are byte-identical for ANY Concurrency. 0 defaults to BatchSize
	// (every query of a batch gets its own goroutine). Selection quality
	// is governed by BatchSize alone.
	Concurrency int
	// Shards partitions the local records into this many contiguous
	// shards for parallel batch removal (resume replay, coverage and §4.2
	// ΔD removals run one shard worker per range with private per-query
	// delta accumulators; see selection.removeBatch). Like Concurrency it
	// is a pure wall-clock knob: the shard merge applies commutative
	// integer deltas through a single writer, so coverage and the
	// issued-query log are byte-identical for ANY shard count. 0 or 1
	// keeps the sequential removal loop.
	Shards int
	// MaxAttempts > 0 enables graceful degradation: a query whose issue
	// fails is re-queued into the selection pool (with its benefit
	// recomputed against the current coverage) until it has failed
	// MaxAttempts times, then forfeited; the run continues instead of
	// aborting. Failures the interface never charged — 429 bursts, an
	// open circuit, cancellations (deepweb.Charged) — refund their budget
	// unit. Truncated result pages (deepweb.TruncatedError) are absorbed
	// partially with solidity judged on the true result size. The run's
	// Result carries a Resilience report. 0 (the default) preserves the
	// strict behavior: any interface error aborts the run.
	MaxAttempts int
	// Context, when non-nil, bounds the crawl for graceful shutdown: once
	// it is cancelled no further rounds are selected, queries of the
	// current round not yet handed to a dispatcher worker are skipped
	// before they can be charged, and in-flight queries drain — their
	// results are absorbed normally, so every charged query's outcome is
	// kept. Run then returns the partial Result with err == nil; callers
	// detect the interruption via ctx.Err(). The stop point is a round
	// boundary plus drained stragglers, which is exactly a resumable
	// checkpoint state.
	Context context.Context
	// Durability, when non-nil, receives synchronous accounting callbacks
	// from the merge stage (see DurabilitySink) — the hook the WAL
	// journal in internal/durable attaches to. A sink error aborts the
	// run.
	Durability DurabilitySink
	// ResumePending re-issues the unresolved tail of a crashed session's
	// last selection round, with the original benefits, before any new
	// selection happens. Populated by durable.Recover from the round
	// intent record; meaningful only together with Resume.
	ResumePending []PendingQuery
	// Breaker, when non-nil, gates selection rounds through a circuit
	// breaker: interface failures feed it, and while it is open whole
	// rounds are held (each held round advances the count-based
	// cooldown); the half-open probe round has size 1. Driven entirely
	// from the single-writer merge stage, so breaker transitions — like
	// everything else — are deterministic for any Concurrency. Implies
	// MaxAttempts=1 when MaxAttempts is unset. Attach obs via
	// deepweb.(*Breaker).WithObs; Run does not rewire it. For a
	// federated crawl, set breakers per interface (Interface.Breaker)
	// instead.
	Breaker *deepweb.Breaker
	// Deadline, when positive, is the crawl's end-to-end wall-clock
	// budget. It is threaded into every search as a context deadline —
	// deliberately separate from Context, whose cancellation means
	// "drain gracefully": an expired deadline aborts in-flight searches
	// too. Queries the deadline catches before a worker claims them
	// return to the pool unpenalized (never charged); a query it
	// interrupts mid-search is forfeited with its budget unit refunded
	// and counted in Resilience.DeadlineExhausted; and the crawl loop
	// stops at the next round boundary. Implies MaxAttempts=1 when
	// MaxAttempts is unset, so interrupted queries degrade instead of
	// aborting the run.
	Deadline time.Duration
	// QueryTimeout, when positive, bounds each individual search with its
	// own context deadline, so one hung round-trip cannot consume the
	// whole crawl Deadline. A query that times out while the crawl
	// deadline is still live is an ordinary transient failure: it is
	// requeued (subject to MaxAttempts and the retry budget), not
	// deadline-forfeited.
	QueryTimeout time.Duration
	// RetryBudget, when positive, caps requeues at roughly this fraction
	// of successful dispatches (Finagle-style token bucket: every
	// absorbed query deposits RetryBudget tokens, every requeue withdraws
	// one, and the bucket starts with a small burst). Under a sustained
	// outage retries stop once the budget drains — the query is forfeited
	// and counted in Resilience.RetryBudgetDenied — so a retry storm
	// cannot multiply load on an interface that is already down. The
	// bucket is driven from the single-writer merge stage in selection
	// order, keeping runs deterministic at any Concurrency. 0.1 means
	// "retries may add 10% extra load".
	RetryBudget float64
	// Health, when non-nil, enables per-interface health scoring in a
	// federated crawl: each interface carries a deterministic EWMA score
	// over its outcomes (successes recover it toward 1, failures and
	// breaker holds decay it), and the allocator multiplies each
	// interface's marginal-benefit bid by its score — so a sick interface
	// gradually loses rounds to healthy ones instead of burning charged
	// queries at full rate until its breaker trips. A degraded interface
	// that has lost ProbeEvery consecutive rounds is granted one round as
	// a recovery probe. Ignored for single-interface crawls (there is no
	// allocation choice to steer).
	Health *HealthConfig
}

// Smart is the SMARTCRAWL framework (Algorithm 4), generalized over a set
// of hidden-database interfaces: the single-interface crawl of the paper is
// exactly the n=1 case of the federated loop (see NewFederatedSmart), so
// there is no second code path to drift from the oracle-tested one.
type Smart struct {
	env *Env
	cfg SmartConfig
	// ifaces is the interface set with its defaults filled in. NewSmart
	// builds its one interface from env.Searcher and the config's
	// Sample/Estimator/Breaker and leaves it unnamed; NewFederatedSmart
	// names every interface.
	ifaces []Interface

	// HeapRepushes is populated after Run with the lazy-queue repush
	// count (the `t` factor of the Appendix B analysis), summed over
	// interfaces.
	HeapRepushes int
	// PoolSize is populated after Run with the generated pool size.
	PoolSize int
}

// NewSmart constructs a SMARTCRAWL crawler. The estimator defaults to
// Biased when a sample is supplied and Frequency (QSel-Simple) otherwise.
func NewSmart(env *Env, cfg SmartConfig) (*Smart, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	h := Interface{Searcher: env.Searcher, Sample: cfg.Sample, Estimator: cfg.Estimator, Breaker: cfg.Breaker}
	if err := h.normalize(cfg.OnlineCalibration); err != nil {
		return nil, fmt.Errorf("crawler: %w", err)
	}
	return &Smart{env: env, cfg: cfg, ifaces: []Interface{h}}, nil
}

// Name implements Crawler.
func (s *Smart) Name() string {
	if len(s.ifaces) > 1 {
		return fmt.Sprintf("smartcrawl-federated-%d", len(s.ifaces))
	}
	if s.cfg.OnlineCalibration {
		return "smartcrawl-online"
	}
	est := s.ifaces[0].Estimator
	if _, ok := est.(estimator.Frequency); ok {
		return "smartcrawl-simple"
	}
	return "smartcrawl-" + est.Name()
}

// qstate is the live selection state of one pool query under one interface.
type qstate struct {
	q *querypool.Query
	// qD holds the local record IDs satisfying q at generation time,
	// sorted ascending — the interned-index intersection result.
	qD    []uint32
	freqD int // |q(D)| over still-considered records
	// matchS is |q(D) ∩̃ q(Hs)| over still-considered records.
	matchS int
	freqS  int // |q(Hs)|, static
	issued bool
	// attempts counts failed issues of this query (graceful degradation);
	// at SmartConfig.MaxAttempts the query is forfeited.
	attempts int
}

// calibMinObs is the observation count below which an online-calibration
// bucket is considered unusable (see SmartConfig.OnlineCalibration).
const calibMinObs = 3

// bucketStat is one online-calibration bucket: the running sum and count of
// realized benefits of queries whose |q(D₀)| falls in the bucket.
type bucketStat struct {
	sum   float64
	count int
}

// bucketOf is the bit length of n (⌈log₂(n+1)⌉ for n ≥ 0) — the hardware
// leading-zero count instead of a shift loop.
func bucketOf(n int) int { return bits.Len(uint(n)) }

// ifaceRun is one interface's runtime in the generalized Algorithm-4
// loop: its budget-metered searcher and dispatcher, circuit breaker,
// selection state, and benefit function (per-interface k, θ, α, estimator,
// online-calibration buckets). A single-interface crawl runs one of these.
type ifaceRun struct {
	source

	counting *deepweb.Counting
	disp     *deepweb.Dispatcher
	br       *deepweb.Breaker

	sel *selection

	// Benefit-function inputs: the (possibly instrumented) estimator with
	// the sample-derived θ and α, or the calibration buckets when online.
	est          estimator.Estimator
	theta, alpha float64
	online       bool
	calib        [64]bucketStat
}

// benefit is the interface's estimated benefit of issuing st now. Online
// calibration uses the bucket mean scaled by the still-uncovered fraction
// of the query's records, falling back to QSel-Simple capped at k until
// the bucket has enough observations.
func (ir *ifaceRun) benefit(st *qstate) float64 {
	if ir.online {
		b := ir.calib[bucketOf(len(st.qD))]
		if b.count >= calibMinObs {
			return (b.sum / float64(b.count)) *
				float64(st.freqD) / float64(len(st.qD))
		}
		if f := float64(st.freqD); f < float64(ir.k) {
			return f
		}
		return float64(ir.k)
	}
	return ir.est.Benefit(estimator.Stats{
		FreqD:       st.freqD,
		FreqSample:  st.freqS,
		MatchSample: st.matchS,
		Theta:       ir.theta,
		K:           ir.k,
		Alpha:       ir.alpha,
	})
}

// observe adds a realized benefit (records newly covered by st) to st's
// calibration bucket and reports whether the queue's priorities should be
// rebuilt: the bucket just became usable, or its mean moved materially —
// rare once calibrated.
func (ir *ifaceRun) observe(st *qstate, newly int) bool {
	b := &ir.calib[bucketOf(len(st.qD))]
	old := *b
	b.sum += float64(newly)
	b.count++
	switch {
	case b.count == calibMinObs:
		return true
	case old.count >= calibMinObs:
		oldMean, curMean := old.sum/float64(old.count), b.sum/float64(b.count)
		return curMean > 1.3*oldMean || curMean < 0.7*oldMean
	}
	return false
}

// ifaceCand is one allocator candidate: an interface, the clean benefit at
// the top of its queue, and the health-scaled rank the allocator orders by
// (rank == benefit when health scoring is off or the interface is healthy —
// multiplying by a score of exactly 1.0 is bit-identical).
type ifaceCand struct {
	ir      *ifaceRun
	benefit float64
	rank    float64
}

// issue is one query of a selection round: what selection chose, and the
// dispatcher's outcome for it.
type issue struct {
	st      *qstate // nil when a resumed pending query left the pool
	benefit float64
	// popped records that selection popped this query's queue entry; a
	// resumed pending query's entry is still queued (invalidated), so
	// returning it to the pool must not push a duplicate.
	popped bool
	deepweb.Outcome
}

// smartRun is the state of one Run; its methods are Run's stages.
type smartRun struct {
	s         *Smart
	cfg       *SmartConfig
	env       *Env
	t         *tracker
	pool      *querypool.Pool
	meter     *deepweb.Budget // one allowance shared by every interface
	runs      []*ifaceRun
	federated bool
	batch     int

	// searchCtx carries ONLY the crawl deadline (nil without one): user
	// cancellation (cfg.Context) deliberately stays out of it so graceful
	// shutdown keeps its drain semantics — in-flight queries finish and
	// are absorbed — while deadline expiry aborts them.
	searchCtx context.Context
	cancel    context.CancelFunc

	// Graceful degradation (see SmartConfig.MaxAttempts/Breaker); rep is
	// nil when any interface error aborts the run.
	maxAttempts int
	rep         *Resilience
	retryBudget *deepweb.RetryBudget
	health      *healthState

	// pending is the unresolved tail of a crashed session's last round
	// (see SmartConfig.ResumePending), re-issued before any selection.
	pending []PendingQuery

	// Round scratch, reused every round. Safe because every consumer
	// finishes with it inside the round — the dispatcher reads its input
	// before returning, and DurabilitySink.RoundSelected must copy what it
	// retains.
	round  []issue
	intent []PendingQuery
	qs     []deepweb.Query
	cands  []ifaceCand
}

// Run implements Crawler, executing Algorithm 4 generalized over the
// interface set: generate the pool once, build per-interface selection
// state, then round by round allocate the shared budget to the interface
// whose best query promises the largest marginal benefit, issue the round
// there, cover records globally, and replay §4.2 removals against the
// issuing interface until the budget or every pool is exhausted.
func (s *Smart) Run(budget int) (*Result, error) {
	r := s.setup(budget)
	defer r.cancel()
	if err := r.replayResume(); err != nil {
		return nil, err
	}
	defer r.env.Obs.Phase("crawl_loop")()
	for r.more() {
		ir, held, err := r.allocate()
		if err != nil {
			return nil, err
		}
		if held {
			continue
		}
		if ir == nil {
			break // every interface's pool is exhausted
		}
		round := r.selectRound(ir)
		if len(round) == 0 {
			break
		}
		if err := r.journalIntent(ir, round); err != nil {
			return nil, err
		}
		r.dispatch(ir, round)
		if err := r.merge(ir, round); err != nil {
			return nil, err
		}
	}
	return r.finish(), nil
}

// setup generates the pool and builds the per-interface runtimes and the
// degradation policy.
func (s *Smart) setup(budget int) *smartRun {
	env, batch := s.env, max(s.cfg.BatchSize, 1)
	r := &smartRun{
		s:         s,
		cfg:       &s.cfg,
		env:       env,
		t:         newTracker(env),
		meter:     deepweb.NewBudget(budget),
		runs:      make([]*ifaceRun, len(s.ifaces)),
		federated: len(s.ifaces) > 1,
		batch:     batch,
		cancel:    func() {},
		pending:   append([]PendingQuery(nil), s.cfg.ResumePending...),
		round:     make([]issue, 0, batch),
		intent:    make([]PendingQuery, 0, batch),
		qs:        make([]deepweb.Query, 0, batch),
		cands:     make([]ifaceCand, 0, len(s.ifaces)),
	}
	if s.cfg.Deadline > 0 {
		r.searchCtx, r.cancel = context.WithTimeout(context.Background(), s.cfg.Deadline)
	}
	workers := s.cfg.Concurrency
	if workers < 1 {
		workers = batch
	}
	poolCfg := s.cfg.PoolConfig
	if poolCfg.Workers == 0 {
		poolCfg.Workers = workers
	}
	stopPool := env.Obs.Phase("pool_generate")
	r.pool = querypool.Generate(env.Local, env.Tokenizer, poolCfg)
	stopPool()
	s.PoolSize = r.pool.Len()

	anyBreaker := false
	for i := range s.ifaces {
		r.runs[i] = r.newIfaceRun(i, &s.ifaces[i], workers)
		anyBreaker = anyBreaker || s.ifaces[i].Breaker != nil
	}

	r.maxAttempts = s.cfg.MaxAttempts
	if r.maxAttempts < 1 && (anyBreaker || s.cfg.Deadline > 0) {
		r.maxAttempts = 1
	}
	// The report rides inside the Result from the start, not only at
	// return: the durability sink snapshots t.res mid-crawl, and a
	// snapshot missing the failure accounting would under-count the
	// settled charge on recovery (durable.Recover derives it as issued +
	// requeued + forfeited − refunded). For the same reason a resumed run
	// carries the earlier sessions' report forward even when not resilient.
	if prev := s.cfg.Resume; prev != nil && prev.Resilience != nil {
		r.t.res.Resilience = prev.Resilience.clone()
	}
	if r.maxAttempts > 0 {
		if r.t.res.Resilience == nil {
			r.t.res.Resilience = &Resilience{}
		}
		r.rep = r.t.res.Resilience
		if s.cfg.RetryBudget > 0 {
			r.retryBudget = deepweb.NewRetryBudget(s.cfg.RetryBudget, 0)
		}
	}
	// Health scoring (see SmartConfig.Health): federated only — with one
	// interface there is no allocation choice to steer.
	if r.federated && s.cfg.Health != nil {
		r.health = newHealthState(*s.cfg.Health, len(r.runs))
		for _, ir := range r.runs {
			if ir.metrics != nil {
				ir.metrics.HealthScore.Set(1000)
			}
		}
	}
	return r
}

// newIfaceRun builds interface i's runtime. Estimator Benefit calls are
// the selection hot path; the instrumented wrapper adds one atomic count
// per call and nothing else, so the benefits — and therefore selection
// order — are bit-identical.
func (r *smartRun) newIfaceRun(i int, h *Interface, workers int) *ifaceRun {
	ir := &ifaceRun{
		source:   source{k: h.Searcher.K(), idx: i},
		br:       h.Breaker,
		counting: deepweb.NewCountingOn(h.Searcher, r.meter),
		est:      h.Estimator,
		online:   r.cfg.OnlineCalibration,
	}
	ir.disp = &deepweb.Dispatcher{
		S:             ir.counting,
		Workers:       workers,
		SearchContext: r.searchCtx,
		Timeout:       r.cfg.QueryTimeout,
		Obs:           r.env.Obs,
	}
	if h.Sample != nil && h.Sample.Len() > 0 {
		ir.theta = h.Sample.Theta
		if r.cfg.AlphaFallback {
			ir.alpha = ir.theta * float64(r.env.Local.Len()) / float64(h.Sample.Len())
		}
	}
	if r.env.Obs.Enabled() {
		ir.est = estimator.Instrumented{E: ir.est, Obs: r.env.Obs}
	}
	// Pool resolution, the interned inverted/forward indexes, the
	// precomputed sample-match counts, and the initial priorities —
	// Figure 3's index structures on token IDs (see selection.go).
	ir.sel = newSelection(r.env, r.pool, selectionStats{smp: h.Sample, joiner: r.t.joiner}, workers, r.cfg.Shards, ir.benefit)
	ir.sel.eager = r.cfg.EagerSelection
	if r.federated {
		// Only a federated crawl tags its obs output per interface; a
		// single-interface one stays untagged.
		ir.name = h.Name
		ir.metrics = r.env.Obs.Iface(ir.name)
	}
	return ir
}

// replayResume replays a previous session's effects before selecting:
// the tracker's cumulative state, coverage removals against every
// interface, and each step's retirement and §4.2 removals against the
// interface that issued it.
func (r *smartRun) replayResume() error {
	prev := r.cfg.Resume
	if prev == nil {
		return nil
	}
	if len(prev.Covered) != r.env.Local.Len() {
		return fmt.Errorf("crawler: resume checkpoint covers %d records, local database has %d",
			len(prev.Covered), r.env.Local.Len())
	}
	res := r.t.res
	copy(res.Covered, prev.Covered)
	res.CoveredCount = prev.CoveredCount
	res.QueriesIssued = prev.QueriesIssued
	res.Steps = append(res.Steps, prev.Steps...)
	maps.Copy(res.Crawled, prev.Crawled)
	maps.Copy(res.Matches, prev.Matches)
	// Replay is the largest removal batch of a crawl's lifetime, so it
	// benefits most from sharding.
	coveredIDs := make([]int, 0, prev.CoveredCount)
	for d, covered := range prev.Covered {
		if covered {
			coveredIDs = append(coveredIDs, d)
		}
	}
	for _, ir := range r.runs {
		ir.sel.removeBatch(coveredIDs)
	}
	for _, step := range prev.Steps {
		if step.Iface < 0 || step.Iface >= len(r.runs) {
			return fmt.Errorf("crawler: resume step is tagged interface %d; run has %d interfaces",
				step.Iface, len(r.runs))
		}
		ir := r.runs[step.Iface]
		q := r.pool.Find(step.Query)
		if q == nil || ir.sel.states[q.ID] == nil {
			continue // pool drift; the query can no longer be selected anyway
		}
		st := ir.sel.states[q.ID]
		ir.sel.retire(st)
		if step.ResultSize < ir.k && !r.cfg.DisableDeltaDRemoval {
			ir.sel.removeBatchU32(st.qD)
		}
		// Replay the calibration observations so a resumed online crawl
		// selects exactly as an uninterrupted one.
		if ir.online && len(st.qD) > 0 {
			ir.observe(st, step.NewlyCovered)
		}
	}
	if r.cfg.OnlineCalibration {
		for _, ir := range r.runs {
			ir.sel.reprioritize()
		}
	}
	return nil
}

// more reports whether another round may start: budget is left, some
// interface still considers a record or a recovered round is pending, and
// neither graceful shutdown nor the crawl deadline has stopped the crawl
// at this round boundary.
func (r *smartRun) more() bool {
	live := len(r.pending) > 0
	for _, ir := range r.runs {
		live = live || ir.sel.remaining > 0
	}
	if !live || r.meter.Exhausted() {
		return false
	}
	if ctx := r.cfg.Context; ctx != nil && ctx.Err() != nil {
		return false
	}
	return r.searchCtx == nil || r.searchCtx.Err() == nil
}

// admit consults ir's circuit breaker for the next round. While it is
// open each held round advances the count-based cooldown; the round that
// half-opens it proceeds as a single-query probe. A hold is counted and
// decays ir's health score.
func (r *smartRun) admit(ir *ifaceRun) bool {
	if ir.br == nil || ir.br.Allow() {
		return true
	}
	r.rep.BreakerHolds++
	if ir.metrics != nil {
		ir.metrics.Holds.Inc()
	}
	r.noteHealth(ir, false)
	return false
}

// noteHealth moves ir's health score after an outcome — a failure or a
// breaker hold decays it, a success recovers a degraded one — and
// publishes it: the obs gauge (milli-units) and a health trace event.
// Clean runs never move a score off 1.0, so their traces stay
// byte-identical.
func (r *smartRun) noteHealth(ir *ifaceRun, success bool) {
	h := r.health
	switch {
	case h == nil || (success && !h.degraded(ir.idx)):
		return
	case success:
		h.onSuccess(ir.idx)
	default:
		h.onFailure(ir.idx)
	}
	sc := h.score[ir.idx]
	if ir.metrics != nil {
		ir.metrics.HealthScore.Set(int64(sc*1000 + 0.5))
	}
	r.env.Obs.Health(ir.name, sc, false)
}

// allocate grants the next round to an interface. A replayed crashed
// round goes back to the interface that owned it, and a single-interface
// crawl has no choice to make (it skips the allocator entirely). It
// returns held when a breaker held the round, and nil without held when
// every pool is exhausted.
func (r *smartRun) allocate() (ir *ifaceRun, held bool, err error) {
	switch {
	case len(r.pending) > 0:
		pi := r.pending[0].Iface
		if pi < 0 || pi >= len(r.runs) {
			return nil, false, fmt.Errorf("crawler: recovered pending round is tagged interface %d; run has %d interfaces", pi, len(r.runs))
		}
		ir = r.runs[pi]
	case !r.federated:
		ir = r.runs[0]
	default:
		ir, held = r.allocateFederated()
		return ir, held, nil
	}
	return ir, !r.admit(ir), nil
}

// allocateFederated grants the round to the live interface whose best
// clean query promises the largest marginal benefit (ties to the smaller
// index). Peek does exactly the lazy cleaning a Pop would, so ranking does
// no throwaway work. Breakers are consulted in rank order, so an open
// circuit on the best interface cannot starve the healthy ones; if every
// live interface is held, the round is skipped.
func (r *smartRun) allocateFederated() (*ifaceRun, bool) {
	h := r.health
	cands := r.cands[:0]
	for _, c := range r.runs {
		if b, ok := c.sel.peek(); ok {
			rank := b
			if h != nil {
				rank = b * h.score[c.idx]
			}
			cands = append(cands, ifaceCand{c, b, rank})
		}
	}
	var (
		ir           *ifaceRun
		benefit      float64
		held, probed bool
	)
	if h != nil {
		// Recovery probe: a degraded interface that has lost ProbeEvery
		// consecutive rounds force-wins this one (lowest interface index
		// among those due), breaker permitting — the score only recovers
		// through successes, and successes need traffic.
		pi := -1
		for j, c := range cands {
			if h.probeDue(c.ir.idx) && (pi == -1 || c.ir.idx < cands[pi].ir.idx) {
				pi = j
			}
		}
		if pi >= 0 {
			c := cands[pi]
			cands = append(cands[:pi], cands[pi+1:]...)
			if r.admit(c.ir) {
				ir, benefit, probed = c.ir, c.benefit, true
				h.sinceProbe[c.ir.idx] = 0
			} else {
				held = true
			}
		}
	}
	for ir == nil && len(cands) > 0 {
		best := 0
		for j := 1; j < len(cands); j++ {
			if cands[j].rank > cands[best].rank {
				best = j
			}
		}
		c := cands[best]
		cands = append(cands[:best], cands[best+1:]...)
		if !r.admit(c.ir) {
			held = true
			continue
		}
		ir, benefit = c.ir, c.benefit
	}
	if ir == nil {
		return nil, held
	}
	if h != nil {
		// Degraded interfaces that lost this round age toward their
		// recovery probe.
		for _, c := range cands {
			if c.ir != ir && h.degraded(c.ir.idx) {
				h.sinceProbe[c.ir.idx]++
			}
		}
		if probed {
			if ir.metrics != nil {
				ir.metrics.Probes.Inc()
			}
			r.env.Obs.Health(ir.name, h.score[ir.idx], true)
		}
	}
	r.env.Obs.Alloc(ir.name, benefit, r.meter.Remaining())
	if ir.metrics != nil {
		ir.metrics.Allocs.Inc()
	}
	return ir, false
}

// selectRound picks up to batch queries on ir — one while its breaker is
// half-open, and never more than the remaining budget, so concurrent
// issues cannot overshoot b. A recovered crashed round is replayed first.
func (r *smartRun) selectRound(ir *ifaceRun) []issue {
	n := r.batch
	if ir.br != nil && ir.br.State() == deepweb.BreakerHalfOpen {
		n = 1
	}
	if rem := r.meter.Remaining(); rem >= 0 && rem < n {
		n = rem
	}
	r.round = r.round[:0]
	if len(r.pending) > 0 {
		r.replayPending(ir, n)
		return r.round
	}
	for len(r.round) < n {
		st, benefit, ok := ir.sel.pop()
		if !ok {
			break // pool exhausted
		}
		r.round = append(r.round, issue{st: st, benefit: benefit, popped: true, Outcome: deepweb.Outcome{Query: st.q.Keywords}})
	}
	return r.round
}

// replayPending re-issues up to n queries of the crashed round verbatim:
// same queries, benefits, interface and order. A query whose state drifted
// out of the pool is still issued, without live bookkeeping. The pending
// tail is one interface's intent record; trim defensively.
func (r *smartRun) replayPending(ir *ifaceRun, n int) {
	m := 0
	for m < len(r.pending) && r.pending[m].Iface == ir.idx {
		m++
	}
	n = min(n, m)
	for _, p := range r.pending[:n] {
		is := issue{benefit: p.Benefit, Outcome: deepweb.Outcome{Query: p.Query}}
		if q := r.pool.Find(p.Query); q != nil {
			if st := ir.sel.states[q.ID]; st != nil && !st.issued {
				ir.sel.retire(st)
				is.st = st
			}
		}
		r.round = append(r.round, is)
	}
	r.pending = r.pending[n:]
}

// journalIntent is the write-ahead intent: the selected round is
// journaled before any of it is dispatched, so a crash mid-round can
// re-issue exactly this batch instead of re-selecting a different one.
func (r *smartRun) journalIntent(ir *ifaceRun, round []issue) error {
	sink := r.cfg.Durability
	if sink == nil {
		return nil
	}
	r.intent = r.intent[:0]
	for _, is := range round {
		r.intent = append(r.intent, PendingQuery{Query: is.Query, Benefit: is.benefit, Iface: ir.idx})
	}
	return r.sinkErr(sink.RoundSelected(r.intent, r.t.res))
}

// dispatch issues the round through ir's worker pool. Outcomes come back
// index-aligned with the selection order regardless of which worker
// finished first. Under a cancelled context the dispatcher drains:
// started queries finish, unstarted ones come back undispatched before
// they could be charged.
func (r *smartRun) dispatch(ir *ifaceRun, round []issue) {
	r.env.Obs.Round(len(round), r.meter.Remaining())
	r.qs = r.qs[:0]
	for _, is := range round {
		r.qs = append(r.qs, is.Query)
	}
	for i, o := range ir.disp.DispatchCtx(r.cfg.Context, r.qs) {
		round[i].Outcome = o
	}
}

// merge absorbs the round in selection order so runs stay deterministic
// for any worker count — including every degradation decision (requeue,
// forfeit, refund, breaker feeding), which is why none of it happens on
// the workers.
func (r *smartRun) merge(ir *ifaceRun, round []issue) error {
	for i := range round {
		if err := r.settle(ir, &round[i]); err != nil {
			return err
		}
	}
	if sink := r.cfg.Durability; sink != nil {
		return r.sinkErr(sink.RoundCompleted(r.t.res))
	}
	return nil
}

// settle resolves one outcome of the round: returned to the pool
// unissued, stopped by the budget, failed, or absorbed.
func (r *smartRun) settle(ir *ifaceRun, is *issue) error {
	sink, rep := r.cfg.Durability, r.rep
	if is.Undispatched {
		// Shutdown drain or deadline expiry skipped this query before it
		// was issued: never executed, never charged, no journal record —
		// it simply returns to the pool, and a resumed session will find
		// it still pending in the round intent record. (A deadline-skipped
		// query is NOT a deadline forfeit: nothing was spent on it.)
		if is.st != nil {
			ir.sel.unissue(is.st, is.popped, is.benefit)
		}
		return nil
	}
	if rep != nil {
		rep.Dispatched++
	}
	if errors.Is(is.Err, deepweb.ErrBudgetExhausted) {
		if rep != nil {
			rep.BudgetStops++
		}
		if sink != nil {
			return r.sinkErr(sink.BudgetStopped(is.Query, r.t.res))
		}
		return nil
	}
	if ir.br != nil {
		ir.br.Record(is.Err)
	}
	resultSize := len(is.Records)
	if is.Err != nil {
		var te *deepweb.TruncatedError
		switch {
		case rep == nil:
			return fmt.Errorf("crawler: issuing %q: %w", is.Query, is.Err)
		case errors.As(is.Err, &te):
			// A cut page: absorb the partial records below, but judge
			// solidity — and trace the step — on the true matched size, so
			// §4.2 never removes ΔD records on the strength of a truncated
			// result.
			resultSize = te.Full
			rep.Truncated++
			r.env.Obs.Truncated(is.Query.Key(), te.Returned, te.Full)
		case r.searchCtx != nil && r.searchCtx.Err() != nil &&
			errors.Is(is.Err, context.DeadlineExceeded):
			// The crawl deadline caught this query mid-search. There is no
			// time left to retry it, so it is forfeited and attributed to
			// the deadline; the interface never billed the aborted attempt
			// (deepweb.Charged), so the budget unit is refunded. Not an
			// interface-health signal: the clock ran out, the backend did
			// nothing wrong.
			attempts := r.attempt(is.st)
			r.refund(ir, is.Query)
			return r.forfeit(ir, is, attempts, false, true)
		default:
			return r.fail(ir, is)
		}
	}
	return r.absorb(ir, is, resultSize)
}

// fail handles a failed attempt: it counts against the interface's
// health, is refunded when the interface never billed it (429, open
// circuit, cancellation — a query that never executed must not consume
// budget), and is requeued or forfeited.
func (r *smartRun) fail(ir *ifaceRun, is *issue) error {
	if ir.metrics != nil {
		ir.metrics.Errors.Inc()
	}
	r.noteHealth(ir, false)
	charged := deepweb.Charged(is.Err)
	if !charged {
		r.refund(ir, is.Query)
	}
	attempts := r.attempt(is.st)
	if is.st == nil || !r.requeue(ir, is.st, is.popped) {
		return r.forfeit(ir, is, attempts, charged, false)
	}
	r.rep.Requeued++
	r.env.Obs.Requeued(is.Query.Key(), attempts, is.Err)
	if ir.metrics != nil {
		ir.metrics.Requeues.Inc()
	}
	if sink := r.cfg.Durability; sink != nil {
		return r.sinkErr(sink.QueryRequeued(is.Query, attempts, charged, r.t.res))
	}
	return nil
}

// attempt counts one failed attempt of st and returns the total; a
// resumed query that left the pool counts as out of attempts.
func (r *smartRun) attempt(st *qstate) int {
	if st == nil {
		return r.maxAttempts
	}
	st.attempts++
	return st.attempts
}

// refund returns the budget unit of an attempt the interface never billed.
func (r *smartRun) refund(ir *ifaceRun, q deepweb.Query) {
	ir.counting.Refund()
	r.rep.Refunded++
	r.env.Obs.Refunded(q.Key())
}

// forfeit gives up on a failed query; deadline attributes it to the
// crawl deadline.
func (r *smartRun) forfeit(ir *ifaceRun, is *issue, attempts int, charged, deadline bool) error {
	rep, key := r.rep, is.Query.Key()
	rep.Forfeited++
	if deadline {
		rep.DeadlineExhausted++
	}
	rep.ForfeitedQueries = append(rep.ForfeitedQueries, key)
	r.env.Obs.Forfeited(key, attempts, is.Err)
	if deadline {
		r.env.Obs.DeadlineForfeited(key, attempts)
	}
	if ir.metrics != nil {
		ir.metrics.Forfeits.Inc()
	}
	if sink := r.cfg.Durability; sink != nil {
		return r.sinkErr(sink.QueryForfeited(is.Query, attempts, charged, r.t.res))
	}
	return nil
}

// requeue returns a failed query to its interface's pool for another
// attempt. Its live statistics are recomputed from the considered set
// first: removals during the in-flight window skipped this query (issued
// queries are normally never reconsidered), so freqD/matchS are stale.
// Returns false — forfeit — when attempts are exhausted, nothing the query
// covers is still uncovered, or the retry budget is dry (the cheap checks
// run first so a guaranteed forfeit never burns a token).
func (r *smartRun) requeue(ir *ifaceRun, st *qstate, popped bool) bool {
	ir.sel.recompute(st)
	if st.freqD <= 0 || st.attempts >= r.maxAttempts {
		return false
	}
	if r.retryBudget != nil && !r.retryBudget.Withdraw() {
		// The budget is dry: forfeiting here is what caps total attempts
		// near (1+ratio)·dispatches under a sustained outage.
		r.rep.RetryBudgetDenied++
		r.env.Obs.RetryDenied(st.q.Keywords.Key())
		return false
	}
	ir.sel.requeue(st, popped)
	return true
}

// absorb merges a successful (possibly truncated) result: coverage is
// global — a record covered through any interface leaves every
// interface's consideration set — while §4.2 ΔD removal is strictly per
// issuing interface.
func (r *smartRun) absorb(ir *ifaceRun, is *issue, resultSize int) error {
	if r.rep != nil {
		r.rep.Absorbed++
		r.rep.dropForfeit(is.Query.Key())
	}
	if r.retryBudget != nil {
		r.retryBudget.Deposit()
	}
	r.noteHealth(ir, true)
	recs := is.Records
	if r.federated && len(recs) > 0 {
		// Hidden IDs are namespaced per source: distinct interfaces may
		// assign the same ID to different entities, and Result.Crawled is
		// keyed by ID. The records are cloned rather than retagged in
		// place — the searcher may share result slices across calls
		// (Faulty's stale-page cache does). Entity-level dedupe across
		// interfaces still happens downstream: the Joiner matches on
		// values, and first-match-wins coverage keeps one match per local
		// record no matter how many interfaces return the entity.
		remapped := make([]*relational.Record, len(recs))
		for j, h := range recs {
			remapped[j] = &relational.Record{ID: h.ID*len(r.runs) + ir.idx, Values: h.Values}
		}
		recs = remapped
	}
	res := r.t.res
	newly := r.t.absorbSized(is.Query, is.benefit, recs, resultSize, ir.source)
	if sink := r.cfg.Durability; sink != nil {
		if err := sink.StepAbsorbed(res, res.Steps[len(res.Steps)-1], newly); err != nil {
			return r.sinkErr(err)
		}
	}
	st := is.st
	if ir.online && st != nil && len(st.qD) > 0 && ir.observe(st, len(newly)) {
		ir.sel.reprioritize()
	}
	for _, other := range r.runs {
		other.sel.removeBatch(newly)
	}
	// §4.2 ΔD prediction: a solid query (result smaller than k) returns
	// everything matching it, so any record of q(D) it did not cover
	// cannot be in H — drop it from consideration. resultSize is the
	// interface's true match count even when the page was truncated; a
	// record absent from H_i may well be in H_j.
	if resultSize < ir.k && !r.cfg.DisableDeltaDRemoval && st != nil {
		ir.sel.removeBatchU32(st.qD)
	}
	return nil
}

// sinkErr wraps a durability-sink failure, which aborts the run.
func (r *smartRun) sinkErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("crawler: durability sink: %w", err)
}

// finish settles the run's reported totals. The report's breaker trips
// still hold the earlier sessions' count here (a breaker implies a
// report; see setup).
func (r *smartRun) finish() *Result {
	r.s.HeapRepushes = 0
	for _, ir := range r.runs {
		r.s.HeapRepushes += ir.sel.heap.Repushes
		if ir.br != nil {
			r.rep.BreakerTrips += ir.br.Trips()
		}
	}
	return r.t.res
}
