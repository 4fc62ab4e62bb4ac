// Package federate is the one place that knows how a hidden-database
// interface is composed. A Spec describes one interface — backend, top-k
// limit, sample, fault profile, politeness stack, circuit breaker — and
// Spec.Build turns it into a live crawler.Interface, innermost first:
// simulated backend or HTTP client → Faulty → Limited → Retrying, with
// the interface's sample and breaker beside it. Every surface builds
// through it: the smartcrawl CLI and crawld translate a single -hidden/
// -url interface into one unnamed Spec, -interfaces parses n of them
// (ParseSpecs), and cmd/hiddenserver serves Spec.BuildBackend, the
// server-side half (see DESIGN.md, "Federation").
//
// The federation semantics themselves live in the crawl loop
// (crawler.NewFederatedSmart runs Algorithm 4 over all interfaces under
// one global budget; the single-interface crawl is the n=1 case).
package federate

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/deepweb/httpapi"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// Spec describes one hidden-database interface — the per-interface half
// of the smartcrawl CLI flags. Exactly one of Hidden and URL selects the
// backend.
type Spec struct {
	// Name labels the interface in metrics, traces, and WAL crash specs.
	// ParseSpecs defaults it to h1..hn by position; a single-interface
	// crawl leaves it empty.
	Name string
	// Hidden is a CSV (or .jsonl) path served through the in-process
	// simulator.
	Hidden string
	// URL is a hiddenserver base URL (a remote interface).
	URL string
	// K is the simulated interface's top-k limit; remote interfaces
	// report their own k.
	K int
	// RankColumn ranks simulated results by this numeric column,
	// descending; negative selects the deterministic hash ranking.
	RankColumn int
	// NonConjunctive switches the simulator to Yelp-style any-keyword
	// matching.
	NonConjunctive bool
	// Theta, in [0, 1], draws a Bernoulli sample of the simulated backend
	// at this ratio, enabling the QSel-Est estimators for the interface;
	// 0 runs it sample-free (QSel-Simple).
	Theta float64
	// Seed seeds the Bernoulli draw (and the keyword sampler).
	Seed uint64
	// SampleTarget, for remote interfaces, builds a keyword-query sample
	// of about this many records through the interface itself; 0 runs
	// sample-free, negative is invalid.
	SampleTarget int
	// Faults injects deterministic misbehaviour into the interface's
	// search path: a preset name or key=value pairs joined by '+'
	// (the ',' separates spec fields).
	Faults string
	// FaultSeed seeds the fault schedule.
	FaultSeed uint64
	// FaultLatency delays every faulted attempt.
	FaultLatency time.Duration
	// Rate and Burst pace the interface client-side (queries/sec with a
	// token-bucket burst); 0 rate is unpaced.
	Rate  float64
	Burst int
	// Retries re-attempts transient failures with exponential backoff.
	Retries int
	// Breaker is the circuit breaker's consecutive-failure threshold for
	// this interface; 0 disables it.
	Breaker int
}

// specDefaults is the zero-flag Spec: the same defaults as the
// single-interface smartcrawl CLI.
func specDefaults() Spec {
	return Spec{K: 50, RankColumn: -1, Seed: 42, FaultSeed: 1, Burst: 10}
}

// ParseSpecs parses the -interfaces grammar: specs separated by ';',
// key=value fields separated by ','. For example:
//
//	name=yelp,hidden=yelp.csv,k=10,rank-column=3,theta=0.01;
//	name=google,url=http://localhost:8081,sample-target=200,faults=transient10,fault-seed=3,rate=5,retries=3,breaker=5
//
// Recognized keys: name, hidden, url, k, rank-column, non-conjunctive,
// theta, seed, sample-target, faults, fault-seed, fault-latency, rate,
// burst, retries, breaker. A fault spec with its own key=value pairs
// joins them with '+' where the single-interface flag uses ','.
//
// Every spec is validated (Spec.Validate), unnamed specs are named h1..hn
// by position, and duplicate names are rejected — all before any backend
// is built or any remote sample spends a query.
func ParseSpecs(s string) ([]Spec, error) {
	var specs []Spec
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		sp := specDefaults()
		for _, field := range strings.Split(entry, ",") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			key, val, ok := strings.Cut(field, "=")
			if !ok {
				return nil, fmt.Errorf("federate: spec field %q: want key=value", field)
			}
			key = strings.ToLower(strings.TrimSpace(key))
			val = strings.TrimSpace(val)
			var err error
			switch key {
			case "name":
				sp.Name = val
			case "hidden":
				sp.Hidden = val
			case "url":
				sp.URL = val
			case "k":
				sp.K, err = strconv.Atoi(val)
			case "rank-column":
				sp.RankColumn, err = strconv.Atoi(val)
			case "non-conjunctive":
				sp.NonConjunctive, err = strconv.ParseBool(val)
			case "theta":
				sp.Theta, err = strconv.ParseFloat(val, 64)
			case "seed":
				sp.Seed, err = strconv.ParseUint(val, 10, 64)
			case "sample-target":
				sp.SampleTarget, err = strconv.Atoi(val)
			case "faults":
				sp.Faults = val
			case "fault-seed":
				sp.FaultSeed, err = strconv.ParseUint(val, 10, 64)
			case "fault-latency":
				sp.FaultLatency, err = time.ParseDuration(val)
			case "rate":
				sp.Rate, err = strconv.ParseFloat(val, 64)
			case "burst":
				sp.Burst, err = strconv.Atoi(val)
			case "retries":
				sp.Retries, err = strconv.Atoi(val)
			case "breaker":
				sp.Breaker, err = strconv.Atoi(val)
			default:
				return nil, fmt.Errorf("federate: spec field %q: unknown key %q", field, key)
			}
			if err != nil {
				return nil, fmt.Errorf("federate: spec field %q: %v", field, err)
			}
		}
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("federate: spec %q: %w", entry, err)
		}
		specs = append(specs, sp)
	}
	if len(specs) == 0 {
		return nil, errors.New("federate: empty interface spec")
	}
	seen := make(map[string]bool, len(specs))
	for i := range specs {
		if specs[i].Name == "" {
			specs[i].Name = fmt.Sprintf("h%d", i+1)
		}
		if seen[specs[i].Name] {
			return nil, fmt.Errorf("federate: duplicate interface name %q", specs[i].Name)
		}
		seen[specs[i].Name] = true
	}
	return specs, nil
}

// Validate checks the spec on its own, before anything is built: exactly
// one backend, θ in [0, 1], a non-negative sample target (0 = sample-free
// for both), and a parseable fault profile.
func (sp Spec) Validate() error {
	if (sp.Hidden == "") == (sp.URL == "") {
		return errors.New("exactly one of hidden= and url= is required")
	}
	if !(sp.Theta >= 0 && sp.Theta <= 1) {
		return fmt.Errorf("theta %v outside [0, 1] (0 = sample-free)", sp.Theta)
	}
	if sp.SampleTarget < 0 {
		return fmt.Errorf("sample-target %d is negative (0 = sample-free)", sp.SampleTarget)
	}
	if sp.Faults != "" {
		if _, err := sp.faultProfile(); err != nil {
			return err
		}
	}
	return nil
}

// faultProfile parses the '+'-joined fault spec into a seeded profile.
func (sp Spec) faultProfile() (deepweb.FaultProfile, error) {
	p, err := deepweb.ParseFaultProfile(strings.ReplaceAll(sp.Faults, "+", ","))
	if err != nil {
		return p, err
	}
	p.Seed = sp.FaultSeed
	p.Latency = sp.FaultLatency
	return p, nil
}

// fail prefixes err with the package and, when it has one, the
// interface's name.
func (sp Spec) fail(err error) error {
	if sp.Name == "" {
		return fmt.Errorf("federate: %w", err)
	}
	return fmt.Errorf("federate: interface %q: %w", sp.Name, err)
}

// withFaults wraps s in the spec's fault injector, if it has one.
func (sp Spec) withFaults(s deepweb.Searcher, o *obs.Obs) (deepweb.Searcher, error) {
	if sp.Faults == "" {
		return s, nil
	}
	p, err := sp.faultProfile()
	if err != nil {
		return nil, sp.fail(err)
	}
	return deepweb.NewFaulty(s, p).WithObs(o), nil
}

// BuildBackend materializes the spec's server-side searcher: the
// simulated hidden database over the Hidden table, wrapped in the spec's
// fault injector. The returned table is the backend's schema source.
// cmd/hiddenserver serves this; Build layers the client-side stack on
// top of it.
func (sp Spec) BuildBackend(tk *tokenize.Tokenizer, o *obs.Obs) (deepweb.Searcher, *relational.Table, error) {
	if sp.Hidden == "" {
		return nil, nil, sp.fail(errors.New("no hidden table to serve"))
	}
	if sp.K <= 0 {
		return nil, nil, sp.fail(errors.New("k must be > 0"))
	}
	table, err := relational.ReadFile("hidden", sp.Hidden)
	if err != nil {
		return nil, nil, sp.fail(err)
	}
	rank := hidden.RankByHash(0x5eed)
	if sp.RankColumn >= 0 {
		rank = hidden.RankByNumericColumn(sp.RankColumn)
	}
	mode := hidden.ModeConjunctive
	if sp.NonConjunctive {
		mode = hidden.ModeRanked
	}
	s, err := sp.withFaults(hidden.New(table, tk, sp.K, rank, mode), o)
	return s, table, err
}

// Build materializes the spec into a live crawler.Interface: backend (or
// HTTP client), the interface's sample, fault injection, client-side rate
// limiting, retries, and its circuit breaker. local seeds the keyword
// sampler of remote interfaces; o (nil ok) observes every layer. The
// returned table is the backend's schema source, nil for remote ones.
//
// The composed stack, innermost first: backend → Faulty → Limited →
// Retrying. A remote sample is drawn through the bare client, before the
// stack. The Breaker is handed to the crawl loop rather than wrapped
// around the searcher (in a federation an open breaker diverts the round
// to the next-ranked interface instead of failing its queries).
func (sp Spec) Build(local *relational.Table, tk *tokenize.Tokenizer, o *obs.Obs) (crawler.Interface, *relational.Table, error) {
	h := crawler.Interface{Name: sp.Name}
	var (
		s     deepweb.Searcher
		table *relational.Table
		err   error
	)
	if sp.Hidden != "" {
		s, table, err = sp.BuildBackend(tk, o)
		if err != nil {
			return h, nil, err
		}
		if sp.Theta > 0 {
			h.Sample = sample.Bernoulli(table, sp.Theta, stats.NewRNG(sp.Seed))
		}
	} else {
		// The client deliberately carries no context: graceful shutdown
		// drains in-flight queries (their results are absorbed and
		// journaled), it does not abort them mid-request.
		client := &httpapi.Client{BaseURL: sp.URL, Retries: 5}
		if h.Sample, err = sp.remoteSample(client, local, tk, o); err != nil {
			return h, nil, err
		}
		if s, err = sp.withFaults(client, o); err != nil {
			return h, nil, err
		}
	}
	if sp.Rate > 0 {
		s = &deepweb.Limited{S: s, B: deepweb.NewBucket(sp.Burst, sp.Rate), Obs: o}
	}
	if sp.Retries > 0 {
		s = &deepweb.Retrying{
			S:       s,
			Retries: sp.Retries,
			Backoff: deepweb.ExponentialBackoff(200*time.Millisecond, 5*time.Second),
			Obs:     o,
		}
	}
	h.Searcher = s
	if sp.Breaker > 0 {
		h.Breaker = deepweb.NewBreaker(deepweb.BreakerConfig{FailureThreshold: sp.Breaker}).WithObs(o)
	}
	return h, table, nil
}

// remoteSample probes a remote interface with one local keyword and, with
// a positive SampleTarget, draws its keyword-query sample (nil without).
func (sp Spec) remoteSample(client *httpapi.Client, local *relational.Table, tk *tokenize.Tokenizer, o *obs.Obs) (*sample.Sample, error) {
	pool := sample.SingleKeywordPool(local, tk)
	if len(pool) == 0 {
		return nil, errors.New("federate: local table has no indexable keywords to probe with")
	}
	if err := client.Probe(pool[0]); err != nil {
		return nil, sp.fail(fmt.Errorf("probing %s: %w", sp.URL, err))
	}
	if sp.SampleTarget == 0 {
		return nil, nil
	}
	stop := o.Phase("keyword_sample")
	smp, err := sample.Keyword(client, pool, tk, sample.KeywordConfig{
		Target: sp.SampleTarget, Seed: sp.Seed,
	})
	stop()
	// An exhausted allowance still yields a usable partial sample (its
	// Theta reflects what was drawn). Anything else, or an empty sample,
	// is a real failure.
	if err != nil && (!errors.Is(err, sample.ErrSampleBudget) || smp.Len() == 0) {
		return nil, sp.fail(fmt.Errorf("sampling: %w", err))
	}
	return smp, nil
}

// Federation is the materialized interface set of a crawl.
type Federation struct {
	// Ifaces are the live interface handles, in spec order — the order is
	// the interface ID space (crawler.Interface).
	Ifaces []crawler.Interface
	// Tables holds each CSV-backed interface's table (schema source for
	// enrichment), nil for remote backends; aligned with Ifaces.
	Tables []*relational.Table
}

// BuildAll materializes every spec, in order.
func BuildAll(specs []Spec, local *relational.Table, tk *tokenize.Tokenizer, o *obs.Obs) (*Federation, error) {
	fed := &Federation{}
	for _, sp := range specs {
		h, table, err := sp.Build(local, tk, o)
		if err != nil {
			return nil, err
		}
		fed.Ifaces = append(fed.Ifaces, h)
		fed.Tables = append(fed.Tables, table)
	}
	return fed, nil
}

// Table returns the first CSV-backed interface's table, nil when every
// backend is remote.
func (f *Federation) Table() *relational.Table {
	for _, t := range f.Tables {
		if t != nil {
			return t
		}
	}
	return nil
}

// HiddenSchema returns the enrichment schema of the crawl: the first
// CSV-backed interface's schema or, when every backend is remote, col0..
// colN synthesized from the first sampled interface; nil when no
// interface exposes even a sample.
func (f *Federation) HiddenSchema() []string {
	if t := f.Table(); t != nil {
		return t.Schema
	}
	for _, h := range f.Ifaces {
		if h.Sample != nil && h.Sample.Len() > 0 {
			schema := make([]string, len(h.Sample.Records[0].Values))
			for i := range schema {
				schema[i] = fmt.Sprintf("col%d", i)
			}
			return schema
		}
	}
	return nil
}

// AnyFaults reports whether any spec injects faults — the engine uses it
// to default the graceful-degradation knobs on.
func AnyFaults(specs []Spec) bool {
	for _, sp := range specs {
		if sp.Faults != "" {
			return true
		}
	}
	return false
}
