// Package smartcrawl is the public API of this reproduction of
// "Progressive Deep Web Crawling Through Keyword Queries For Data
// Enrichment" (SIGMOD 2019). It solves the DeepEnrich problem: given a
// local table D, a hidden database H reachable only through a top-k
// keyword-search interface, and a query budget b, issue b queries whose
// results cover (entity-match) as many records of D as possible — then
// append H's extra attributes to the covered records.
//
// Quick start:
//
//	tk := smartcrawl.NewTokenizer()
//	hiddenDB := smartcrawl.NewHiddenDatabase(hiddenTable, tk, smartcrawl.HiddenOptions{K: 50})
//	smp := smartcrawl.BernoulliSample(hiddenTable, 0.005, 42)
//	env := &smartcrawl.Env{
//		Local:     localTable,
//		Searcher:  hiddenDB,
//		Tokenizer: tk,
//		Matcher:   smartcrawl.NewExactMatcher(tk),
//	}
//	c, err := smartcrawl.NewSmartCrawler(env, smartcrawl.SmartOptions{Sample: smp})
//	report, result, err := smartcrawl.Enrich(localTable, hiddenTable.Schema, c, 1000,
//		smartcrawl.EnrichOptions{Columns: []int{3}})
//
// The facade re-exports the building blocks from the internal packages;
// see DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// reproduced evaluation. For crawls against unreliable interfaces it also
// exposes the resilience layer — NewFaultySearcher (deterministic fault
// injection for chaos drills), NewBreaker/NewGuardedSearcher (circuit
// breaking), SmartOptions.MaxAttempts (requeue/forfeit with budget
// refunds), and the per-run Resilience report — documented operator-side
// in docs/OPERATIONS.md.
package smartcrawl

import (
	"context"
	"errors"
	"io"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/durable"
	"smartcrawl/internal/engine"
	"smartcrawl/internal/enrich"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/federate"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/match"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/querypool"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
	"smartcrawl/internal/trace"
)

// Core data types.
type (
	// Record is one row of a table; see Table.
	Record = relational.Record
	// Table is a named relation with a schema.
	Table = relational.Table
	// SchemaMapping aligns local columns to hidden columns.
	SchemaMapping = relational.SchemaMapping
	// Tokenizer turns text into the keyword tokens everything agrees on.
	Tokenizer = tokenize.Tokenizer
	// Dict is the frozen token-interning dictionary: dense uint32 token
	// IDs over a corpus vocabulary. The selection hot paths run on token
	// IDs instead of strings (see DESIGN.md, "The interned hot path");
	// querypool.Generate builds one per pool, exposed as Pool.Dict.
	Dict = tokenize.Dict
	// Query is a normalized conjunctive keyword query.
	Query = deepweb.Query
	// Searcher is the restricted interface to a hidden database.
	Searcher = deepweb.Searcher
	// Matcher is the entity-resolution black box.
	Matcher = match.Matcher
	// Sample is a hidden-database sample with its ratio θ.
	Sample = sample.Sample
	// Env bundles the local table, search interface, tokenizer, and
	// matcher for a crawl.
	Env = crawler.Env
	// Crawler runs a budgeted crawl.
	Crawler = crawler.Crawler
	// Result is a crawl outcome: covered records, matches, trace.
	Result = crawler.Result
	// Step is one issued query in a Result trace.
	Step = crawler.Step
	// HiddenDatabase is the in-process hidden-database simulator.
	HiddenDatabase = hidden.Database
	// PoolConfig controls query-pool generation.
	PoolConfig = querypool.Config
	// EnrichOptions configures Enrich.
	EnrichOptions = enrich.Options
	// EnrichReport summarizes an enrichment run.
	EnrichReport = enrich.Report
	// Obs is the observability sink: attach one to Env.Obs to get live
	// counters, latency histograms, estimate-vs-realized benefit
	// accounting, and (with a Tracer) a JSONL session trace. All hooks
	// are no-ops on a nil sink, and observation never changes crawl
	// results.
	Obs = obs.Obs
	// Tracer emits structured JSONL session events (schema in
	// docs/TRACE_SCHEMA.md).
	Tracer = obs.Tracer
	// TraceEvent is one parsed line of a JSONL session trace: the
	// envelope (Seq, TMs, Type), the raw line, and a typed payload in
	// Data (*trace.Query, *trace.Round, …; nil for an unknown type).
	TraceEvent = trace.Event
	// TraceQuery is the payload of a `query` trace event: the query, its
	// estimated benefit, and the coverage it actually added.
	TraceQuery = trace.Query
	// FaultProfile configures deterministic fault injection (see
	// NewFaultySearcher); parse CLI specs with ParseFaultProfile.
	FaultProfile = deepweb.FaultProfile
	// TruncatedError reports a cut result page: the partial records are
	// returned alongside it, and Full carries the true match count.
	TruncatedError = deepweb.TruncatedError
	// Breaker is a closed/open/half-open circuit breaker; attach one to
	// SmartOptions.Breaker or compose it with NewGuardedSearcher.
	Breaker = deepweb.Breaker
	// BreakerConfig shapes a Breaker (thresholds, count-based cooldown).
	BreakerConfig = deepweb.BreakerConfig
	// Resilience is the graceful-degradation report of a fault-tolerant
	// crawl (Result.Resilience).
	Resilience = crawler.Resilience
	// PendingQuery is one journaled-but-unresolved selection-round entry;
	// a recovered crawl re-issues them via SmartOptions.ResumePending.
	PendingQuery = crawler.PendingQuery
	// DurabilitySink receives per-event accounting callbacks from the
	// crawl merge stage (SmartOptions.Durability).
	DurabilitySink = crawler.DurabilitySink
	// Durability is the crash-safety implementation of DurabilitySink: a
	// checksummed WAL journal with atomic snapshot compaction. Construct
	// with OpenDurability.
	Durability = durable.Sink
	// DurabilityOptions configures OpenDurability.
	DurabilityOptions = durable.Options
	// RecoveredCrawl is crawl state rebuilt from a snapshot + journal
	// (see RecoverCrawl and Durability.Recovered).
	RecoveredCrawl = durable.Recovered
	// FederatedInterface is one interface of a federated crawl: its
	// searcher, sample, estimator, and circuit breaker. The slice index
	// passed to NewFederatedCrawler is the interface's ID in steps,
	// checkpoints, and the WAL.
	FederatedInterface = crawler.Interface
	// InterfaceSpec is the parsed CLI description of one federated
	// interface (see ParseInterfaceSpecs).
	InterfaceSpec = federate.Spec
	// Federation is a materialized interface set (see BuildInterfaces).
	Federation = federate.Federation
	// HealthConfig tunes per-interface health scoring in federated crawls
	// (SmartOptions.Health); DefaultHealthConfig returns the tuned
	// defaults.
	HealthConfig = crawler.HealthConfig
)

// DefaultHealthConfig returns the tuned health-scoring defaults (EWMA
// alpha 0.2, score floor 0.05, recovery probe every 16 lost rounds).
func DefaultHealthConfig() HealthConfig { return crawler.DefaultHealthConfig() }

// Journal fsync policies for DurabilityOptions.Sync. None of them is
// needed to survive the process dying (a completed write lives in the
// page cache); they guard against the machine dying — power loss, kernel
// panic.
const (
	// SyncAlways fsyncs after every journal append.
	SyncAlways = durable.SyncAlways
	// SyncRound fsyncs once per completed selection round (group commit).
	SyncRound = durable.SyncRound
	// SyncCompact (the default) fsyncs only at compaction, open, and
	// close.
	SyncCompact = durable.SyncCompact
)

// DefaultAutosave is the default journal→snapshot compaction cadence, in
// absorbed queries (DurabilityOptions.Every).
const DefaultAutosave = durable.DefaultEvery

// NewObs returns an enabled observability sink (see Env.Obs).
func NewObs() *Obs { return obs.New() }

// NewTracer traces session events onto w as JSON Lines; attach it with
// Obs.SetTracer. Wrap files in a bufio.Writer and Flush before closing.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// ParseTrace decodes a JSONL session trace back into events. On a
// malformed line it returns the events before it with a line-numbered
// error.
func ParseTrace(r io.Reader) ([]TraceEvent, error) { return trace.Parse(r) }

// NewTokenizer returns the default tokenizer (English stop words).
func NewTokenizer() *Tokenizer { return tokenize.New() }

// BuildDict interns the given vocabulary in slice order and freezes the
// dictionary. Pass a sorted, deduplicated vocabulary to make token IDs
// monotone in token order, which keeps resolved keyword-ID slices sorted.
func BuildDict(vocab []string) *Dict { return tokenize.BuildDict(vocab) }

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema []string) *Table {
	return relational.NewTable(name, schema)
}

// HiddenOptions configures NewHiddenDatabase.
type HiddenOptions struct {
	// K is the top-k result limit (required, > 0).
	K int
	// RankColumn ranks results by the numeric value of this hidden
	// column, descending. Negative selects a deterministic hash ranking.
	RankColumn int
	// NonConjunctive switches to the Yelp-style interface: any-keyword
	// matches may be returned, all-keyword matches rank on top.
	NonConjunctive bool
}

// NewHiddenDatabase wraps a table in a simulated keyword-search interface.
// Use it to stand in for a real deep website in tests and experiments; for
// real endpoints implement Searcher (see internal/deepweb/httpapi for an
// HTTP client/server pair).
func NewHiddenDatabase(t *Table, tk *Tokenizer, opts HiddenOptions) *HiddenDatabase {
	rank := hidden.RankByHash(0x5eed)
	if opts.RankColumn >= 0 {
		rank = hidden.RankByNumericColumn(opts.RankColumn)
	}
	mode := hidden.ModeConjunctive
	if opts.NonConjunctive {
		mode = hidden.ModeRanked
	}
	return hidden.New(t, tk, opts.K, rank, mode)
}

// NewExactMatcher matches records with identical normalized documents
// (Assumption 3 of the paper).
func NewExactMatcher(tk *Tokenizer) Matcher { return match.NewExact(tk) }

// NewExactMatcherOn is NewExactMatcher restricted to aligned key columns
// (local side, hidden side); nil means all columns.
func NewExactMatcherOn(tk *Tokenizer, localCols, hiddenCols []int) Matcher {
	return match.NewExactOn(tk, localCols, hiddenCols)
}

// NewJaccardMatcher matches records whose token-set Jaccard similarity
// meets the threshold — the fuzzy matching of §6.1.
func NewJaccardMatcher(tk *Tokenizer, threshold float64) Matcher {
	return match.NewJaccard(tk, threshold)
}

// NewJaccardMatcherOn is NewJaccardMatcher restricted to key columns.
func NewJaccardMatcherOn(tk *Tokenizer, threshold float64, localCols, hiddenCols []int) Matcher {
	return match.NewJaccardOn(tk, threshold, localCols, hiddenCols)
}

// MatchAll combines matchers conjunctively ("name fuzzy AND city exact").
func MatchAll(parts ...Matcher) Matcher { return match.And(parts...) }

// MatchAny combines matchers disjunctively.
func MatchAny(parts ...Matcher) Matcher { return match.Or(parts...) }

// NewBlockedMatcher builds the classic blocking-then-verification ER
// pipeline: block generates candidates through an indexable matcher
// (exact or Jaccard), verify predicates filter them. The crawl loop's
// similarity join indexes the block, so probes stay fast.
func NewBlockedMatcher(block Matcher, verify ...Matcher) Matcher {
	return match.NewBlockedAnd(block, verify...)
}

// BernoulliSample draws a hidden-database sample with known ratio theta —
// the simulation-side sampler. Use KeywordSample against real interfaces.
func BernoulliSample(hiddenTable *Table, theta float64, seed uint64) *Sample {
	return sample.Bernoulli(hiddenTable, theta, stats.NewRNG(seed))
}

// KeywordSampleConfig configures KeywordSample.
type KeywordSampleConfig = sample.KeywordConfig

// KeywordSample builds a near-uniform hidden-database sample through the
// search interface alone (stand-in for Zhang et al. [48]); the seed pool
// is typically SingleKeywordPool(localTable).
func KeywordSample(s Searcher, pool []Query, tk *Tokenizer, cfg KeywordSampleConfig) (*Sample, error) {
	return sample.Keyword(s, pool, tk, cfg)
}

// SingleKeywordPool extracts every distinct keyword of a table as
// single-keyword queries — the sampler's seed pool (§7.1.2).
func SingleKeywordPool(t *Table, tk *Tokenizer) []Query {
	return sample.SingleKeywordPool(t, tk)
}

// RandomWalkSampleConfig configures RandomWalkSample.
type RandomWalkSampleConfig = sample.RandomWalkConfig

// RandomWalkSample is the zoom-in variant of KeywordSample for interfaces
// where single keywords mostly overflow (large hidden databases behind a
// small k): overflowing walks are narrowed by conjoining further keywords
// until they turn solid.
func RandomWalkSample(s Searcher, pool []Query, tk *Tokenizer, cfg RandomWalkSampleConfig) (*Sample, error) {
	return sample.RandomWalk(s, pool, tk, cfg)
}

// SmartOptions configures NewSmartCrawler.
type SmartOptions struct {
	// Sample enables the QSel-Est estimators; nil falls back to
	// QSel-Simple (frequency-based selection).
	Sample *Sample
	// Unbiased selects the unbiased estimators instead of the biased
	// ones (the paper recommends biased; see §7.2.1).
	Unbiased bool
	// Omega, when > 0 and ≠ 1, uses the Fisher-noncentral weighted
	// estimator (§5.3 extension): top-k records are Omega times as
	// likely to match D as tail records. Requires a Sample and is
	// mutually exclusive with Unbiased.
	Omega float64
	// Pool controls query-pool generation.
	Pool PoolConfig
	// BatchSize > 1 issues the top-n selections concurrently per round
	// (the searcher must be safe for concurrent use, as HTTP clients
	// are); trades a little coverage for wall-clock against slow
	// interfaces.
	BatchSize int
	// Workers is the crawl pipeline's worker-pool size: goroutines
	// issuing each batch, plus shards for index construction and pool
	// mining. Purely a wall-clock knob — at a fixed seed, coverage and
	// the issued-query log are identical for any Workers value; only
	// BatchSize affects selection quality. 0 defaults to BatchSize.
	Workers int
	// Resume continues from a checkpoint saved with SaveCheckpoint; the
	// resumed crawl selects exactly what an uninterrupted crawl with the
	// combined budget would.
	Resume *Result
	// Online enables pay-as-you-go calibration: no sample is needed —
	// the crawler learns query benefits from the results it fetches
	// anyway. Mutually exclusive with Sample.
	Online bool
	// MaxAttempts > 0 enables graceful degradation: failed queries are
	// re-queued up to MaxAttempts times then forfeited instead of
	// aborting the crawl, uncharged failures refund their budget unit,
	// and truncated pages are absorbed partially. The run's Result
	// carries a Resilience report. 0 keeps the strict fail-fast behavior.
	MaxAttempts int
	// Breaker, when non-nil, holds selection rounds while the interface
	// is misbehaving (implies MaxAttempts >= 1). Construct with
	// NewBreaker.
	Breaker *Breaker
	// Deadline, when positive, is the end-to-end wall-clock budget of the
	// crawl (implies MaxAttempts >= 1): selection stops when it expires,
	// in-flight queries fail fast, and queries the deadline interrupts
	// mid-search are forfeited with their budget unit refunded.
	Deadline time.Duration
	// QueryTimeout, when positive, bounds each dispatched search attempt
	// independently of Deadline.
	QueryTimeout time.Duration
	// RetryBudget, when positive, caps requeues at this ratio of
	// dispatches (a retry token bucket earned by successes), so a failing
	// interface cannot amplify its own load through retry storms.
	RetryBudget float64
	// Health, when non-nil, enables per-interface health scoring in
	// federated crawls (NewFederatedCrawler only): allocation bids are
	// scaled by an EWMA success score and degraded interfaces get
	// periodic recovery probes. Use DefaultHealthConfig for the tuned
	// defaults.
	Health *HealthConfig
	// Context, when non-nil, lets the crawl be interrupted gracefully:
	// cancellation stops selection at the next round boundary, drains
	// in-flight queries, and returns the partial (resumable) Result with
	// a nil error.
	Context context.Context
	// Durability, when non-nil, receives synchronous accounting
	// callbacks from the merge stage — attach a Durability (WAL journal +
	// snapshot compaction) from OpenDurability for crash-safe crawls.
	Durability DurabilitySink
	// ResumePending re-issues the unresolved tail of a crashed session's
	// last selection round before any fresh selection; populate it from
	// RecoveredCrawl.Pending together with Resume.
	ResumePending []PendingQuery
}

// NewSmartCrawler builds the paper's SMARTCRAWL framework: query pool from
// D (query sharing), iterative benefit-estimated selection
// (local-database-aware crawling), ΔD prediction, and the lazy
// priority-queue machinery of §6.3.
func NewSmartCrawler(env *Env, opts SmartOptions) (Crawler, error) {
	cfg := crawler.SmartConfig{
		PoolConfig:        opts.Pool,
		Sample:            opts.Sample,
		BatchSize:         opts.BatchSize,
		Concurrency:       opts.Workers,
		Resume:            opts.Resume,
		OnlineCalibration: opts.Online,
		MaxAttempts:       opts.MaxAttempts,
		Breaker:           opts.Breaker,
		Context:           opts.Context,
		Durability:        opts.Durability,
		ResumePending:     opts.ResumePending,
		Deadline:          opts.Deadline,
		QueryTimeout:      opts.QueryTimeout,
		RetryBudget:       opts.RetryBudget,
	}
	if opts.Health != nil {
		return nil, errors.New("smartcrawl: Health scoring applies to federated crawls (NewFederatedCrawler)")
	}
	if opts.Sample != nil {
		cfg.AlphaFallback = true
		switch {
		case opts.Unbiased && opts.Omega > 0 && opts.Omega != 1:
			return nil, errors.New("smartcrawl: Unbiased and Omega are mutually exclusive")
		case opts.Unbiased:
			cfg.Estimator = estimator.Unbiased{}
		case opts.Omega > 0 && opts.Omega != 1:
			cfg.Estimator = estimator.WeightedBiased{Omega: opts.Omega}
		default:
			cfg.Estimator = estimator.Biased{}
		}
	}
	return crawler.NewSmart(env, cfg)
}

// ParseInterfaceSpecs parses the -interfaces CLI grammar — specs
// separated by ';', key=value fields separated by ',' — into one
// InterfaceSpec per federated interface. See internal/federate for the
// full key list.
func ParseInterfaceSpecs(s string) ([]InterfaceSpec, error) {
	return federate.ParseSpecs(s)
}

// BuildInterfaces materializes interface specs into live handles:
// simulated or HTTP backends, fault injection, client-side rate
// limiting, retries, per-interface samples and breakers. local seeds the
// keyword sampler of remote interfaces; o may be nil.
func BuildInterfaces(specs []InterfaceSpec, local *Table, tk *Tokenizer, o *Obs) (*Federation, error) {
	return federate.BuildAll(specs, local, tk, o)
}

// NewFederatedCrawler builds SMARTCRAWL over a set of interfaces H1..Hn
// sharing one global budget: each selection round goes to the interface
// whose best unissued query promises the largest marginal estimated
// benefit (deterministic tie-break by interface index), and results
// merge into one coverage set with cross-interface entity dedupe. With a
// single interface the crawl is byte-identical to NewSmartCrawler over
// that interface's searcher.
//
// Per-interface knobs (sample, estimator, breaker) live on each
// FederatedInterface; the options' Sample, Unbiased, Omega, and Breaker
// fields must be unset.
func NewFederatedCrawler(env *Env, opts SmartOptions, ifaces []FederatedInterface) (Crawler, error) {
	if opts.Sample != nil || opts.Unbiased || opts.Omega != 0 || opts.Breaker != nil {
		return nil, errors.New("smartcrawl: federated crawls take Sample/Estimator/Breaker per interface")
	}
	cfg := crawler.SmartConfig{
		PoolConfig:        opts.Pool,
		BatchSize:         opts.BatchSize,
		Concurrency:       opts.Workers,
		Resume:            opts.Resume,
		OnlineCalibration: opts.Online,
		MaxAttempts:       opts.MaxAttempts,
		Context:           opts.Context,
		Durability:        opts.Durability,
		ResumePending:     opts.ResumePending,
		Deadline:          opts.Deadline,
		QueryTimeout:      opts.QueryTimeout,
		RetryBudget:       opts.RetryBudget,
		Health:            opts.Health,
	}
	// Mirror NewSmartCrawler: sampled interfaces get the §6.2
	// inadequate-sample fallback (α is computed per interface from its
	// own sample), so the n=1 federation estimates exactly like the
	// single-interface construction.
	for _, h := range ifaces {
		if h.Sample != nil {
			cfg.AlphaFallback = true
			break
		}
	}
	return crawler.NewFederatedSmart(env, cfg, ifaces)
}

// SaveCheckpoint serializes a crawl result so a later session can resume
// it (SmartOptions.Resume) — enrichment jobs routinely span multiple API
// quota windows.
func SaveCheckpoint(w io.Writer, res *Result) error {
	return crawler.SaveResult(w, res)
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint.
func LoadCheckpoint(r io.Reader) (*Result, error) {
	return crawler.LoadResult(r)
}

// WriteCheckpointFile saves a checkpoint atomically: readers of path see
// either the previous complete checkpoint or the new one, never a torn
// write — safe to use for the only copy of a crawl's progress.
func WriteCheckpointFile(path string, res *Result) error {
	return durable.WriteFileAtomic(path, func(w io.Writer) error {
		return crawler.SaveResult(w, res)
	})
}

// OpenDurability recovers prior crawl state from a snapshot + WAL journal
// and returns the live crash-safety sink: attach it (and the recovered
// state) to SmartOptions and every charged query becomes durable the
// moment it is absorbed. See docs/OPERATIONS.md "Durability & recovery".
func OpenDurability(opts DurabilityOptions) (*Durability, error) {
	return durable.Open(opts)
}

// RecoverCrawl rebuilds crawl state from a snapshot and/or journal
// without modifying either file — the read-only half of OpenDurability,
// for inspection tooling. localLen pins the expected local-table size; 0
// accepts what the files record.
func RecoverCrawl(snapshotPath, journalPath string, localLen int) (*RecoveredCrawl, error) {
	return durable.Recover(snapshotPath, journalPath, localLen)
}

// NewRetryingSearcher wraps a Searcher so transient failures (network
// blips, 5xx) are retried with exponential backoff before a crawl gives
// up.
func NewRetryingSearcher(s Searcher, retries int, base, max time.Duration) Searcher {
	return &deepweb.Retrying{
		S:       s,
		Retries: retries,
		Backoff: deepweb.ExponentialBackoff(base, max),
	}
}

// NewRateLimitedSearcher wraps a Searcher with a client-side token bucket
// (capacity tokens, refilled at refillPerSec) so a multi-worker crawl
// never exceeds the polite request rate, whatever SmartOptions.Workers is
// set to. A throttled request fails fast with a transient error; compose
// with NewRetryingSearcher (outside) to wait out the refill with backoff.
func NewRateLimitedSearcher(s Searcher, capacity int, refillPerSec float64) Searcher {
	return &deepweb.Limited{S: s, B: deepweb.NewBucket(capacity, refillPerSec)}
}

// ParseFaultProfile turns a CLI fault spec — a preset name (none, mild,
// moderate, severe, transient10) or "timeout=0.05,truncate=0.1"-style
// pairs — into a FaultProfile. Set the Seed on the returned profile.
func ParseFaultProfile(spec string) (FaultProfile, error) {
	return deepweb.ParseFaultProfile(spec)
}

// NewFaultySearcher wraps a Searcher with deterministic, seedable fault
// injection: timeouts, transient 5xx, 429 bursts, truncated and stale
// result pages, per the profile's probabilities. The same seed and
// profile misbehave identically at any worker count — faulty crawls
// replay byte-for-byte.
func NewFaultySearcher(s Searcher, p FaultProfile) Searcher {
	return deepweb.NewFaulty(s, p)
}

// NewBreaker builds a circuit breaker (zero config = defaults: open after
// 5 consecutive failures, half-open after 8 held calls, close after 1
// good probe).
func NewBreaker(cfg BreakerConfig) *Breaker { return deepweb.NewBreaker(cfg) }

// NewGuardedSearcher gates a Searcher through a breaker: while open,
// calls fail fast without reaching the interface (and without being
// charged — see the Resilience report's refund accounting).
func NewGuardedSearcher(s Searcher, b *Breaker) Searcher {
	return &deepweb.Guarded{S: s, B: b}
}

// PorterStem is the Porter stemming algorithm; assign it to
// Tokenizer.Stemmer to fold morphological variants onto one keyword
// (enable only when the hidden database's engine stems too).
func PorterStem(w string) string { return tokenize.PorterStem(w) }

// NewNaiveCrawler builds the NAIVECRAWL baseline: one specific query per
// local record, in seeded random order. keyColumns nil means all columns.
func NewNaiveCrawler(env *Env, keyColumns []int, seed uint64) (Crawler, error) {
	return crawler.NewNaive(env, keyColumns, seed)
}

// NewFullCrawler builds the FULLCRAWL baseline: local-database-oblivious
// crawling by sample-frequent keywords.
func NewFullCrawler(env *Env, smp *Sample) (Crawler, error) {
	return crawler.NewFull(env, smp)
}

// MatchSchemas aligns the attributes of a local and a hidden table by name
// and value overlap.
func MatchSchemas(local, hiddenTable *Table, tk *Tokenizer) SchemaMapping {
	return relational.MatchSchemas(local, hiddenTable, tk)
}

// Enrich crawls with c under the budget and appends the selected hidden
// attributes to the local table in place.
func Enrich(local *Table, hiddenSchema []string, c Crawler, budget int, opts EnrichOptions) (*EnrichReport, *Result, error) {
	return enrich.Enrich(local, hiddenSchema, c, budget, opts)
}

// EnrichmentRequest describes one end-to-end enrichment crawl — the
// engine-level form shared by the smartcrawl CLI and crawld daemon jobs.
// Build one (start from DefaultEnrichmentRequest), then RunEnrichment.
type EnrichmentRequest = engine.Request

// EnrichmentOutcome is the result of RunEnrichment.
type EnrichmentOutcome = engine.Outcome

// DefaultEnrichmentRequest returns a request carrying the smartcrawl CLI
// flag defaults.
func DefaultEnrichmentRequest() EnrichmentRequest { return engine.Defaults() }

// RunEnrichment executes the request end to end: load/assemble the
// interface, recover durable state, crawl, enrich the local table in
// place, and persist the checkpoint. Both user-facing surfaces (the CLI
// and crawld) run exactly this, so equal requests produce byte-identical
// results whichever surface submitted them.
func RunEnrichment(req *EnrichmentRequest) (*EnrichmentOutcome, error) {
	return engine.Run(req)
}
