package main

import (
	"fmt"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/dataset"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/match"
	"smartcrawl/internal/querypool"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// Surfaces a workload crawls through.
const (
	surfaceLocal  = "local"  // crawler.NewSmart(...).Run against an in-process hidden.Database
	surfaceHTTP   = "http"   // the same crawl through httpapi.Client ↔ httpapi.Server over loopback
	surfaceCrawld = "crawld" // a crawld job: POST /jobs on jobs.Server until /result is readable
)

// The crawl parameters every workload shares: the dataset seed its tables
// are generated from, the hidden database's k, the Bernoulli sampling
// ratio of the hidden sample, the query budget and the batch size.
const (
	dataSeed = 7
	topK     = 100
	theta    = 0.05
	budget   = 100
	batch    = 8
)

// workload is one fixed benchmark configuration. Its tables are generated
// from dataSeed, so every run crawls the same universe; the run seed draws
// the hidden sample, which steers the estimates and with them the queries
// the crawl chooses.
type workload struct {
	name    string
	surface string
	corpus  int // dataset.DBLPConfig sizes
	hidden  int
	local   int
	deltaD  int
	errRate float64
	fuzzy   float64 // Jaccard threshold; 0 = exact matching
	workers int     // crawl pipeline workers (SmartConfig.Concurrency)
	// scrapeHz is the open-loop /metrics scrape rate; 0 = no scraper.
	scrapeHz float64
}

var workloads = []*workload{
	{
		name:    "wide-local",
		surface: surfaceLocal,
		corpus:  20000, hidden: 5000, local: 1500,
		workers: 2,
	},
	{
		// One worker: with the scraper, the load generator then holds
		// two connections, within the CPUs of a 2-core machine.
		name:    "narrow-fuzzy-http",
		surface: surfaceHTTP,
		corpus:  80000, hidden: 40000, local: 400, deltaD: 40, errRate: 0.1,
		fuzzy:   0.8,
		workers: 1, scrapeHz: 10,
	},
	{
		name:    "crawld-durable",
		surface: surfaceCrawld,
		corpus:  20000, hidden: 5000, local: 1500,
		workers: 2, scrapeHz: 10,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// universe is one seeded instance of a workload: the generated tables,
// the hidden database, the seed's sample and the matcher exactly as the
// smartcrawl engine assembles them, and the oracle.
type universe struct {
	w       *workload
	seed    uint64
	tk      *tokenize.Tokenizer
	local   *relational.Table
	hiddenT *relational.Table
	rankCol int
	db      *hidden.Database
	smp     *sample.Sample
	matcher match.Matcher
	// ideal is IdealCrawl's coverage at the workload budget: an upper
	// bound on what SmartCrawl may cover.
	ideal int
	// ref is the digest of a sequential (Concurrency 1) in-process crawl;
	// every measured crawl must reproduce it.
	ref digest
}

// sampleSeed maps the benchmark seed onto the engine's sampling seed,
// which must be non-zero (a zero job seed means "default" to crawld).
func sampleSeed(seed uint64) uint64 { return seed + 1 }

// newUniverse generates the workload's tables, draws the seed's sample and
// computes the reference digest. IdealCrawl's coverage is computed separately
// (computeIdeal): it issues every pool query, which costs far more than
// the rest of set-up.
func newUniverse(w *workload, seed uint64) (*universe, error) {
	in, err := dataset.GenerateDBLP(dataset.DBLPConfig{
		CorpusSize: w.corpus,
		HiddenSize: w.hidden,
		LocalSize:  w.local,
		DeltaD:     w.deltaD,
		ErrorRate:  w.errRate,
		Seed:       dataSeed,
	})
	if err != nil {
		return nil, err
	}
	u := &universe{w: w, seed: seed, tk: tokenize.New(), local: in.Local, hiddenT: in.Hidden, rankCol: in.RankColumn}
	u.db = hidden.New(in.Hidden, u.tk, topK, hidden.RankByNumericColumn(in.RankColumn), hidden.ModeConjunctive)
	u.smp = sample.Bernoulli(in.Hidden, theta, stats.NewRNG(sampleSeed(seed)))
	// Align columns the way the engine does, so an in-process crawl and a
	// crawld job over the same tables select and match identically.
	var lc, hc []int
	for i, j := range relational.MatchSchemas(u.local, u.hiddenT, u.tk).LocalToHidden {
		if j >= 0 {
			lc = append(lc, i)
			hc = append(hc, j)
		}
	}
	if len(lc) == 0 {
		return nil, fmt.Errorf("no aligned columns between %v and %v", u.local.Schema, u.hiddenT.Schema)
	}
	if w.fuzzy > 0 {
		u.matcher = match.NewJaccardOn(u.tk, w.fuzzy, lc, hc)
	} else {
		u.matcher = match.NewExactOn(u.tk, lc, hc)
	}

	s, err := crawler.NewSmart(u.env(u.db), u.smartConfig(1))
	if err != nil {
		return nil, err
	}
	res, err := s.Run(budget)
	if err != nil {
		return nil, fmt.Errorf("reference crawl: %w", err)
	}
	u.ref = digestOf(res)
	return u, nil
}

// env is the crawl environment over the given searcher.
func (u *universe) env(s deepweb.Searcher) *crawler.Env {
	return &crawler.Env{Local: u.local, Searcher: s, Tokenizer: u.tk, Matcher: u.matcher}
}

// smartConfig is the SmartCrawl configuration the engine builds for the
// "smart" strategy (biased estimator, α fallback), at the workload's
// batch size and the given worker count.
func (u *universe) smartConfig(workers int) crawler.SmartConfig {
	return crawler.SmartConfig{
		Sample:        u.smp,
		AlphaFallback: true,
		Estimator:     estimator.Biased{},
		BatchSize:     batch,
		Concurrency:   workers,
	}
}

// computeIdeal runs IdealCrawl at the workload budget.
func (u *universe) computeIdeal() (int, error) {
	c, err := crawler.NewIdeal(u.env(u.db), u.db, querypool.Config{})
	if err != nil {
		return 0, err
	}
	res, err := c.Run(budget)
	if err != nil {
		return 0, fmt.Errorf("ideal crawl: %w", err)
	}
	return res.CoveredCount, nil
}
