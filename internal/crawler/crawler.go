// Package crawler implements the paper's crawl frameworks over a shared
// environment: SMARTCRAWL (§3, with the QSel-Simple, QSel-Est-Biased and
// QSel-Est-Unbiased selection strategies of §3.2/§5 and the ΔD-removal
// optimization of §4.2), the QSel-Bound variant with its worst-case
// guarantee (§4.1, Algorithm 3), the IDEALCRAWL oracle (QSel-Ideal,
// Algorithm 1), and the two straightforward baselines NAIVECRAWL and
// FULLCRAWL (§1).
//
// All practical crawlers access the hidden database exclusively through a
// deepweb.Searcher; IdealCrawl additionally holds an oracle handle, which
// is the point — it is the unattainable upper bound the estimators chase.
//
// SMARTCRAWL optionally degrades gracefully over a misbehaving interface
// (SmartConfig.MaxAttempts, SmartConfig.Breaker): failed queries are
// requeued with freshly recomputed benefits or forfeited, uncharged
// failures refund their budget unit, truncated result pages are absorbed
// partially with solidity judged on the interface's true result size, and
// the run ends with a fully accounted Resilience report that survives
// checkpoint/resume. Fault classes and accounting rules live in package
// deepweb; docs/OPERATIONS.md is the operator-facing guide.
package crawler

import (
	"errors"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/index"
	"smartcrawl/internal/match"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

// Env is the shared crawl environment: the local database, the restricted
// search interface, and the entity-resolution black box.
type Env struct {
	Local     *relational.Table
	Searcher  deepweb.Searcher
	Tokenizer *tokenize.Tokenizer
	Matcher   match.Matcher
	// Corpus, when set, is an opened corpus cache for Local: selection
	// resolves q(D) through its block-compressed, memory-mapped inverted
	// index instead of building index.InvertedIDs on the heap, and the
	// engine routes pool generation through its dictionary. The cache
	// MUST have been built over exactly this Local table (the engine
	// validates record counts); results are then byte-identical to the
	// in-memory path. Nil keeps the heap index.
	Corpus *index.CorpusFile
	// OnStep, when set, is invoked after every issued query with the
	// recorded step — progress reporting for long crawls. It runs on the
	// crawl goroutine; keep it fast.
	OnStep func(Step)
	// Obs, when set, observes the crawl: per-query events with estimated
	// vs realized benefit, selection-round and phase timings, dispatcher
	// latency. Nil disables all instrumentation at the cost of one
	// branch per hook; observation never changes crawl results.
	Obs *obs.Obs
}

func (e *Env) validate() error {
	if err := e.validateFederated(); err != nil {
		return err
	}
	if e.Searcher == nil {
		return errors.New("crawler: no searcher")
	}
	return nil
}

// validateFederated is validate without the searcher requirement: a
// federated crawl carries its searchers per interface (see
// NewFederatedSmart) and may leave Env.Searcher nil.
func (e *Env) validateFederated() error {
	switch {
	case e == nil:
		return errors.New("crawler: nil environment")
	case e.Local == nil || e.Local.Len() == 0:
		return errors.New("crawler: empty local database")
	case e.Tokenizer == nil:
		return errors.New("crawler: no tokenizer")
	case e.Matcher == nil:
		return errors.New("crawler: no matcher")
	}
	return nil
}

// Step records one issued query for tracing and for coverage-vs-budget
// curves.
type Step struct {
	Query             deepweb.Query
	EstimatedBenefit  float64
	NewlyCovered      int
	CumulativeCovered int
	ResultSize        int
	// NewHidden lists the hidden record IDs first crawled by this query
	// (≤ k entries), letting the harness rebuild coverage-vs-budget
	// curves from a single run.
	NewHidden []int
	// Iface is the index of the interface this query was issued against —
	// always 0 for single-interface crawls, the Interface slice index for
	// federated ones (see NewFederatedSmart). It rides through checkpoints
	// and the WAL so a federated crawl resumes and replays per interface.
	Iface int
}

// Result is the outcome of a crawl run.
type Result struct {
	// Covered[d] reports whether local record d was covered by some
	// issued query's result.
	Covered []bool
	// CoveredCount is the number of true entries in Covered.
	CoveredCount int
	// QueriesIssued counts queries actually sent (≤ budget).
	QueriesIssued int
	// Steps traces every issued query in order.
	Steps []Step
	// Matches maps each covered local record ID to the hidden record
	// that covered it (first match wins) — the input to enrichment.
	Matches map[int]*relational.Record
	// Crawled holds every distinct hidden record retrieved, keyed by
	// hidden record ID.
	Crawled map[int]*relational.Record
	// Resilience is the graceful-degradation report of a SMARTCRAWL run
	// with fault tolerance enabled (SmartConfig.MaxAttempts/Breaker); nil
	// otherwise. Checkpoints persist it so resumed runs report
	// cumulatively.
	Resilience *Resilience
}

// Crawler runs a crawl under a query budget.
type Crawler interface {
	// Name identifies the framework in experiment output.
	Name() string
	// Run issues at most budget queries and returns the crawl result.
	Run(budget int) (*Result, error)
}

// tracker accumulates coverage state shared by all frameworks.
type tracker struct {
	env    *Env
	joiner *match.Joiner
	res    *Result
	// probed holds the hidden IDs this run has matched against the local
	// database. Probing one again cannot cover anything: every record it
	// matched is already Covered. It is per run, not Result.Crawled, so a
	// resumed run re-probes what an earlier session crawled.
	probed map[int]struct{}
}

func newTracker(env *Env) *tracker {
	n := env.Local.Len()
	return &tracker{
		env:    env,
		joiner: match.NewJoiner(env.Local.Records, env.Tokenizer, env.Matcher),
		probed: make(map[int]struct{}),
		res: &Result{
			Covered: make([]bool, n),
			Matches: make(map[int]*relational.Record),
			Crawled: make(map[int]*relational.Record),
		},
	}
}

// absorb records a query result: returns the local record IDs newly
// covered by it and logs the step.
func (t *tracker) absorb(q deepweb.Query, benefit float64, recs []*relational.Record) []int {
	return t.absorbSized(q, benefit, recs, len(recs), source{k: t.env.Searcher.K()})
}

// source identifies the interface that answered a query: its result limit
// k (interfaces of a federated crawl differ in k), its index, and the obs
// tagging only a federated crawl sets (name and per-interface metrics).
type source struct {
	k, idx  int
	name    string
	metrics *obs.IfaceMetrics
}

// absorbSized is absorb for results whose true size differs from the
// records in hand: a truncated page carries len(recs) records but the
// interface matched resultSize. The step trace and the solidity decision
// (resultSize < k drives both the obs event and §4.2 ΔD replay on resume)
// use the true size, so a cut page is never mistaken for a solid result.
func (t *tracker) absorbSized(q deepweb.Query, benefit float64, recs []*relational.Record, resultSize int, src source) []int {
	var newly []int
	var newHidden []int
	for _, h := range recs {
		if _, ok := t.res.Crawled[h.ID]; !ok {
			t.res.Crawled[h.ID] = h
			newHidden = append(newHidden, h.ID)
		}
		if _, ok := t.probed[h.ID]; ok {
			continue
		}
		t.probed[h.ID] = struct{}{}
		for _, d := range t.joiner.Matches(h) {
			if t.res.Covered[d] {
				continue
			}
			t.res.Covered[d] = true
			t.res.CoveredCount++
			t.res.Matches[d] = h
			newly = append(newly, d)
		}
	}
	t.res.QueriesIssued++
	step := Step{
		Query:             q,
		EstimatedBenefit:  benefit,
		NewlyCovered:      len(newly),
		CumulativeCovered: t.res.CoveredCount,
		ResultSize:        resultSize,
		NewHidden:         newHidden,
		Iface:             src.idx,
	}
	t.res.Steps = append(t.res.Steps, step)
	solid := resultSize < src.k
	if o := t.env.Obs; o != nil {
		o.QueryIface(src.name, q.Key(), benefit, resultSize, len(newly), t.res.CoveredCount, solid)
	}
	if m := src.metrics; m != nil {
		m.Queries.Inc()
		m.Covered.Add(int64(len(newly)))
		if solid {
			m.Solid.Inc()
		}
	}
	if t.env.OnStep != nil {
		t.env.OnStep(step)
	}
	return newly
}
