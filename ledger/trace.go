package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/index"
	"smartcrawl/internal/match"
	"smartcrawl/internal/querypool"
	"smartcrawl/internal/relational"
)

// The traced run times each layer from outside the program: decorators
// around the interfaces the crawler only calls through (Searcher,
// Estimator, DurabilitySink), and replays of the layers it calls
// directly (pool mining, the heap index, matching, tokenizing) on the
// inputs the decorators captured.

// layerUnits declares every per-layer metric with its unit, in report
// order. A metric a workload does not exercise reports 0.
var layerUnits = []struct{ name, unit string }{
	{"querypool.generate_s", "s"},
	{"querypool.queries", "count"},
	{"querypool.allocs", "count"},
	{"match.joiner_build_s", "s"},
	{"match.matches_s", "s"},
	{"match.records_probed", "count"},
	{"match.useful_ratio", "ratio"},
	{"index.build_s", "s"},
	{"index.lookup_s", "s"},
	{"index.postings", "count"},
	{"index.corpus_build_s", "s"},
	{"index.corpus_open_s", "s"},
	{"tokenize.busy_s", "s"},
	{"tokenize.tokens", "count"},
	{"deepweb.search_calls", "count"},
	{"deepweb.search_busy_s", "s"},
	{"deepweb.search_wait_s", "s"},
	{"deepweb.search_p50_ms", "ms"},
	{"deepweb.search_p90_ms", "ms"},
	{"deepweb.records_returned", "count"},
	{"deepweb.errors", "count"},
	{"hidden.search_s", "s"},
	{"httpapi.overhead_s", "s"},
	{"estimator.calls", "count"},
	{"estimator.busy_s", "s"},
	{"crawler.run_s", "s"},
	{"crawler.self_s", "s"},
	{"crawler.heap_repushes", "count"},
	{"crawler.attributed_s", "s"},
	{"crawler.unattributed_s", "s"},
	{"crawler.trace_overhead_s", "s"},
	{"durable.calls", "count"},
	{"durable.busy_s", "s"},
	{"durable.journal_bytes", "bytes"},
	{"durable.compactions", "count"},
	{"jobs.submit_ms", "ms"},
	{"jobs.queue_wait_s", "s"},
	{"jobs.shed", "count"},
	{"obs.scrapes", "count"},
	{"obs.scrape_p50_ms", "ms"},
	{"obs.scrape_p90_ms", "ms"},
	{"obs.scrape_late_ms", "ms"},
	{"obs.scrape_bytes", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
}

// plainRunS is the layer key of the untraced twin of a traced crawl, the
// base of crawler.trace_overhead_s; it is not reported itself.
const plainRunS = "crawler.plain_run_s"

// layers holds one traced crawl's per-layer samples.
type layers map[string]float64

// layerMetrics reports each layer metric's median over the traced
// crawls; run-level figures (scrapes, trace overhead, the unattributed
// rest of the crawl) come from the run or from those medians.
func (l *loop) layerMetrics(m map[string]metric, scr scrapeStats) {
	for _, lu := range layerUnits {
		xs := make([]float64, 0, len(l.trace))
		for _, ly := range l.trace {
			xs = append(xs, ly[lu.name])
		}
		m[lu.name] = metric{median(xs), lu.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	plain := make([]float64, 0, len(l.trace))
	for _, ly := range l.trace {
		plain = append(plain, ly[plainRunS])
	}
	set("crawler.trace_overhead_s", m["crawler.run_s"].Value-median(plain))
	set("crawler.unattributed_s", m["crawler.run_s"].Value-m["crawler.attributed_s"].Value)
	set("obs.scrapes", float64(scr.attempted))
	set("obs.scrape_p50_ms", median(scr.latencyMs))
	set("obs.scrape_p90_ms", quantile(scr.latencyMs, 0.9))
	set("obs.scrape_late_ms", quantile(scr.lateMs, 0.9))
	set("obs.scrape_bytes", median(scr.bytes))
}

// span is one Search call.
type span struct {
	start, end time.Time
	recs       []*relational.Record
	err        bool
}

// tracedSearcher times every Search and keeps what it returned.
type tracedSearcher struct {
	S     deepweb.Searcher
	mu    sync.Mutex
	spans map[string]*span // by query key; a crawl issues each query once
	all   []*span
}

func newTracedSearcher(s deepweb.Searcher) *tracedSearcher {
	return &tracedSearcher{S: s, spans: map[string]*span{}}
}

func (t *tracedSearcher) Search(q deepweb.Query) ([]*relational.Record, error) {
	return t.SearchCtx(context.Background(), q)
}

func (t *tracedSearcher) SearchCtx(ctx context.Context, q deepweb.Query) ([]*relational.Record, error) {
	sp := &span{start: time.Now()}
	recs, err := deepweb.SearchWith(ctx, t.S, q)
	sp.end = time.Now()
	sp.recs, sp.err = recs, err != nil
	t.mu.Lock()
	t.spans[q.Key()] = sp
	t.all = append(t.all, sp)
	t.mu.Unlock()
	return recs, err
}

func (t *tracedSearcher) K() int { return t.S.K() }

// tracedEstimator counts and times Benefit calls; selection may call it
// from several goroutines.
type tracedEstimator struct {
	E     estimator.Estimator
	calls atomic.Int64
	busy  atomic.Int64 // ns
}

func (t *tracedEstimator) Name() string { return t.E.Name() }

func (t *tracedEstimator) Benefit(s estimator.Stats) float64 {
	t0 := time.Now()
	b := t.E.Benefit(s)
	t.busy.Add(int64(time.Since(t0)))
	t.calls.Add(1)
	return b
}

// tracedSink counts and times durability callbacks (all on the crawl
// goroutine).
type tracedSink struct {
	S     crawler.DurabilitySink
	calls int
	busy  time.Duration
}

func (t *tracedSink) timed(f func() error) error {
	t0 := time.Now()
	err := f()
	t.busy += time.Since(t0)
	t.calls++
	return err
}

func (t *tracedSink) RoundSelected(sel []crawler.PendingQuery, res *crawler.Result) error {
	return t.timed(func() error { return t.S.RoundSelected(sel, res) })
}

func (t *tracedSink) StepAbsorbed(res *crawler.Result, step crawler.Step, newly []int) error {
	return t.timed(func() error { return t.S.StepAbsorbed(res, step, newly) })
}

func (t *tracedSink) QueryRequeued(q deepweb.Query, attempt int, charged bool, res *crawler.Result) error {
	return t.timed(func() error { return t.S.QueryRequeued(q, attempt, charged, res) })
}

func (t *tracedSink) QueryForfeited(q deepweb.Query, attempts int, charged bool, res *crawler.Result) error {
	return t.timed(func() error { return t.S.QueryForfeited(q, attempts, charged, res) })
}

func (t *tracedSink) BudgetStopped(q deepweb.Query, res *crawler.Result) error {
	return t.timed(func() error { return t.S.BudgetStopped(q, res) })
}

func (t *tracedSink) RoundCompleted(res *crawler.Result) error {
	return t.timed(func() error { return t.S.RoundCompleted(res) })
}

// tracedRun is one decorated crawl: what to run and what it observed.
type tracedRun struct {
	u      *universe
	search *tracedSearcher
	est    *tracedEstimator
	sink   *tracedSink
	corpus *index.CorpusFile
	// stepAt[i] is when the crawl goroutine finished absorbing step i.
	stepAt []time.Time
	runS   float64
	smart  *crawler.Smart
	res    *crawler.Result
}

// runTracedCrawl runs one SmartCrawl over s with the decorators on;
// corpus and sink mirror a crawld job's out-of-core, journaled crawl.
func runTracedCrawl(u *universe, s deepweb.Searcher, corpus *index.CorpusFile, sink crawler.DurabilitySink) (*tracedRun, error) {
	tr := &tracedRun{u: u, search: newTracedSearcher(s), corpus: corpus}
	env := u.env(tr.search)
	env.Corpus = corpus
	env.OnStep = func(crawler.Step) { tr.stepAt = append(tr.stepAt, time.Now()) }
	cfg := u.smartConfig(u.w.workers)
	tr.est = &tracedEstimator{E: cfg.Estimator}
	cfg.Estimator = tr.est
	if corpus != nil {
		cfg.PoolConfig.Dict = corpus.Dict
	}
	if sink != nil {
		tr.sink = &tracedSink{S: sink}
		cfg.Durability = tr.sink
	}
	smart, err := crawler.NewSmart(env, cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := smart.Run(budget)
	tr.runS = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	tr.smart, tr.res = smart, res
	return tr, nil
}

// layers derives the decorator figures and runs the replays.
func (tr *tracedRun) layers() layers {
	u, w := tr.u, tr.u.w
	ly := layers{}
	res := tr.res

	// Search: calls, busy time, latency, and the part of the crawl's wall
	// time spent waiting for a result — for step i, from when the crawl
	// goroutine finished step i-1 (or the search started, if later) until
	// the search returned.
	var busy, wait float64
	var lat []float64
	recsOut, errs := 0, 0
	for _, sp := range tr.search.all {
		d := sp.end.Sub(sp.start).Seconds()
		busy += d
		lat = append(lat, d*1e3)
		recsOut += len(sp.recs)
		if sp.err {
			errs++
		}
	}
	var absorbed [][]*relational.Record
	var prev time.Time
	for i, st := range res.Steps {
		sp := tr.search.spans[st.Query.Key()]
		if sp == nil || i >= len(tr.stepAt) {
			continue
		}
		absorbed = append(absorbed, sp.recs)
		from := sp.start
		if prev.After(from) {
			from = prev
		}
		if sp.end.After(from) {
			wait += sp.end.Sub(from).Seconds()
		}
		prev = tr.stepAt[i]
	}
	ly["deepweb.search_calls"] = float64(len(tr.search.all))
	ly["deepweb.search_busy_s"] = busy
	ly["deepweb.search_wait_s"] = wait
	ly["deepweb.search_p50_ms"] = median(lat)
	ly["deepweb.search_p90_ms"] = quantile(lat, 0.9)
	ly["deepweb.records_returned"] = float64(recsOut)
	ly["deepweb.errors"] = float64(errs)

	ly["estimator.calls"] = float64(tr.est.calls.Load())
	ly["estimator.busy_s"] = tr.est.busyS()
	var durableS float64
	if tr.sink != nil {
		durableS = tr.sink.busy.Seconds()
		ly["durable.calls"] = float64(tr.sink.calls)
		ly["durable.busy_s"] = durableS
	}

	// Pool mining, replayed with the crawl's pool configuration.
	poolCfg := querypool.Config{Workers: w.workers}
	if tr.corpus != nil {
		poolCfg.Dict = tr.corpus.Dict
	}
	r0, t0 := readRT(), time.Now()
	pool := querypool.Generate(u.local, u.tk, poolCfg)
	genS := time.Since(t0).Seconds()
	ly["querypool.generate_s"] = genS
	ly["querypool.queries"] = float64(pool.Len())
	ly["querypool.allocs"] = readRT().allocObjects - r0.allocObjects

	// The inverted indexes selection builds — over the local table on
	// the heap, unless a corpus cache is mapped, and over the sample —
	// then q(D) and the sample frequency of every pool query, resolved in
	// parallel chunks as the crawl does.
	t0 = time.Now()
	var lookup interface {
		LookupInto(q, scratch []uint32) []uint32
	}
	postings := 0
	if tr.corpus == nil {
		inv := index.BuildInvertedIDs(u.local.Records, u.tk, pool.Dict, w.workers)
		lookup = inv
		for id := 0; id < pool.Dict.Len(); id++ {
			postings += inv.DocFreq(uint32(id))
		}
	} else {
		lookup = tr.corpus.Inv
		for id := 0; id < tr.corpus.Dict.Len(); id++ {
			postings += tr.corpus.Inv.DocFreq(uint32(id))
		}
	}
	reIDed := make([]*relational.Record, len(u.smp.Records))
	for i, r := range u.smp.Records {
		reIDed[i] = &relational.Record{ID: i, Values: r.Values}
	}
	invS := index.BuildInvertedIDs(reIDed, u.tk, pool.Dict, w.workers)
	indexS := time.Since(t0).Seconds()
	t0 = time.Now()
	var wg sync.WaitGroup
	chunk := (pool.Len() + w.workers - 1) / w.workers
	for lo := 0; lo < pool.Len(); lo += chunk {
		hi := min(lo+chunk, pool.Len())
		wg.Add(1)
		go func(qs []*querypool.Query) {
			defer wg.Done()
			var scratch []uint32
			for _, q := range qs {
				if scratch = lookup.LookupInto(q.IDs, scratch[:0]); len(scratch) > 0 {
					invS.Count(q.IDs)
				}
			}
		}(pool.Queries[lo:hi])
	}
	wg.Wait()
	lookupS := time.Since(t0).Seconds()
	ly["index.build_s"] = indexS
	ly["index.lookup_s"] = lookupS
	ly["index.postings"] = float64(postings)

	// Matching: the joiner build, then every record the crawl matched —
	// the sample (selection precomputes its matches) and each search
	// result in absorb order.
	t0 = time.Now()
	j := match.NewJoiner(u.local.Records, u.tk, u.matcher)
	joinS := time.Since(t0).Seconds()
	probed, useful := 0, 0
	t0 = time.Now()
	probe := func(recs []*relational.Record) {
		for _, h := range recs {
			probed++
			if len(j.Matches(h)) > 0 {
				useful++
			}
		}
	}
	probe(u.smp.Records)
	for _, recs := range absorbed {
		probe(recs)
	}
	matchS := time.Since(t0).Seconds()
	ly["match.joiner_build_s"] = joinS
	ly["match.matches_s"] = matchS
	ly["match.records_probed"] = float64(probed)
	if probed > 0 {
		ly["match.useful_ratio"] = float64(useful) / float64(probed)
	}

	// Tokenizing: the local table plus every distinct crawled record,
	// bypassing the per-record token cache.
	tokens := 0
	t0 = time.Now()
	for _, r := range u.local.Records {
		tokens += len(u.tk.Distinct(r.Document()))
	}
	for _, r := range res.Crawled {
		tokens += len(u.tk.Distinct(r.Document()))
	}
	ly["tokenize.busy_s"] = time.Since(t0).Seconds()
	ly["tokenize.tokens"] = float64(tokens)

	// Tokenizing is nested inside pool mining, indexing and matching, so
	// it is not attributed separately.
	attributed := genS + indexS + lookupS + joinS + matchS + wait + tr.est.busyS() + durableS
	ly["crawler.run_s"] = tr.runS
	ly["crawler.self_s"] = tr.runS - wait
	ly["crawler.heap_repushes"] = float64(tr.smart.HeapRepushes)
	ly["crawler.attributed_s"] = attributed
	return ly
}

func (t *tracedEstimator) busyS() float64 { return time.Duration(t.busy.Load()).Seconds() }
