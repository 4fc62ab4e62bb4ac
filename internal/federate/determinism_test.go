package federate_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/dataset"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/match"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// The determinism oracle: a federated crawl — allocator, per-interface
// estimator state, cross-interface dedupe, fault handling — must produce
// byte-identical issued-query logs, coverage, and checkpoints for any
// worker count, at every seed and federation width.

var (
	dblpOnce sync.Once
	dblpInst *dataset.Instance
	dblpErr  error
)

// dblp generates the shared local/hidden instance once per test binary.
func dblp(t *testing.T) *dataset.Instance {
	t.Helper()
	dblpOnce.Do(func() {
		dblpInst, dblpErr = dataset.GenerateDBLP(dataset.DBLPConfig{
			CorpusSize: 1600, HiddenSize: 400, LocalSize: 100, Seed: 11,
		})
	})
	if dblpErr != nil {
		t.Fatal(dblpErr)
	}
	return dblpInst
}

// slice copies rows [lo, hi) of t into a fresh table, re-IDed
// positionally — an independently crawled source.
func slice(t *relational.Table, name string, lo, hi int) *relational.Table {
	out := relational.NewTable(name, t.Schema)
	for _, r := range t.Records[lo:hi] {
		out.Append(r.Values...)
	}
	return out
}

// fedEnv builds the shared crawl environment (Searcher nil — federated
// crawls carry their searchers per interface).
func fedEnv(in *dataset.Instance, tk *tokenize.Tokenizer) *crawler.Env {
	return &crawler.Env{
		Local:     in.Local,
		Tokenizer: tk,
		Matcher:   match.NewExactOn(tk, in.LocalKey, in.HiddenKey),
	}
}

// buildIfaces materializes nIf overlapping slices of the hidden database
// as independent interfaces with distinct k and per-interface samples.
// faultIface (when >= 0) gets a seeded transient10 injector and a
// breaker. Fresh interfaces every call: Faulty and Breaker hold state.
func buildIfaces(in *dataset.Instance, tk *tokenize.Tokenizer, nIf int, seed uint64, faultIface int) []crawler.Interface {
	ks := []int{40, 20, 10}
	n := in.Hidden.Len()
	ifaces := make([]crawler.Interface, nIf)
	for i := 0; i < nIf; i++ {
		lo := i * n / (nIf + 1)
		hi := (i + 2) * n / (nIf + 1)
		tbl := slice(in.Hidden, fmt.Sprintf("h%d", i), lo, hi)
		var s deepweb.Searcher = hidden.New(tbl, tk, ks[i],
			hidden.RankByNumericColumn(in.RankColumn), hidden.ModeConjunctive)
		h := crawler.Interface{
			Name:     fmt.Sprintf("if%d", i),
			Sample:   sample.Bernoulli(tbl, 0.08, stats.NewRNG(seed*100+uint64(i))),
			Searcher: s,
		}
		if i == faultIface {
			profile, err := deepweb.ParseFaultProfile("transient10")
			if err != nil {
				panic(err)
			}
			profile.Seed = 5
			h.Searcher = deepweb.NewFaulty(s, profile)
			h.Breaker = deepweb.NewBreaker(deepweb.BreakerConfig{FailureThreshold: 3})
		}
		ifaces[i] = h
	}
	return ifaces
}

// runFederated executes one federated crawl and returns its result.
func runFederated(t *testing.T, env *crawler.Env, ifaces []crawler.Interface, batch, workers, budget, maxAttempts int) *crawler.Result {
	t.Helper()
	c, err := crawler.NewFederatedSmart(env, crawler.SmartConfig{
		BatchSize: batch, Concurrency: workers, MaxAttempts: maxAttempts,
	}, ifaces)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fingerprint reduces a run to the bytes the oracle compares: the
// interface-tagged issued-query log, the coverage bitmap, and the full
// serialized checkpoint.
func fingerprint(t *testing.T, res *crawler.Result) string {
	t.Helper()
	var sb strings.Builder
	for _, st := range res.Steps {
		fmt.Fprintf(&sb, "%d\t%s\t%.6f\t%d\t%d\t%v\n",
			st.Iface, st.Query.Key(), st.EstimatedBenefit, st.NewlyCovered, st.ResultSize, st.NewHidden)
	}
	fmt.Fprintf(&sb, "covered=%d queries=%d bitmap=", res.CoveredCount, res.QueriesIssued)
	for _, c := range res.Covered {
		if c {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	sb.WriteByte('\n')
	var cp bytes.Buffer
	if err := crawler.SaveResult(&cp, res); err != nil {
		t.Fatal(err)
	}
	sb.Write(cp.Bytes())
	return sb.String()
}

// TestFederatedDeterminismOracle sweeps seeds × worker counts ×
// federation widths: for every (seed, n) cell the issued-query log,
// coverage, and checkpoint bytes must be identical at any worker count.
func TestFederatedDeterminismOracle(t *testing.T) {
	in := dblp(t)
	tk := tokenize.New()
	env := fedEnv(in, tk)
	seeds := []uint64{1, 2, 3}
	workers := []int{1, 4, 16}
	if testing.Short() {
		seeds = []uint64{1}
		workers = []int{1, 4}
	}
	for _, nIf := range []int{1, 2, 3} {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("n=%d,seed=%d", nIf, seed), func(t *testing.T) {
				var ref string
				for _, w := range workers {
					ifaces := buildIfaces(in, tk, nIf, seed, -1)
					res := runFederated(t, env, ifaces, 4, w, 50, 0)
					fp := fingerprint(t, res)
					if ref == "" {
						ref = fp
						if res.CoveredCount == 0 {
							t.Fatal("reference run covered nothing; fixture too small to exercise the allocator")
						}
						continue
					}
					if fp != ref {
						t.Errorf("workers=%d diverged from workers=%d", w, workers[0])
					}
				}
			})
		}
	}
}

// TestFederatedDeterminismUnderFaults repeats the oracle with a seeded
// transient10 injector (and a breaker) on one interface of a two-source
// federation: fault decisions hash (seed, query, attempt), so graceful
// degradation — requeues, refunds, breaker transitions — must stay
// byte-identical for any worker count too.
func TestFederatedDeterminismUnderFaults(t *testing.T) {
	in := dblp(t)
	tk := tokenize.New()
	env := fedEnv(in, tk)
	seeds := []uint64{1, 2, 3}
	workers := []int{1, 4, 16}
	if testing.Short() {
		seeds = []uint64{2}
		workers = []int{1, 4}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var ref string
			var refRes *crawler.Result
			for _, w := range workers {
				ifaces := buildIfaces(in, tk, 2, seed, 1)
				res := runFederated(t, env, ifaces, 4, w, 50, 3)
				fp := fingerprint(t, res)
				if ref == "" {
					ref, refRes = fp, res
					continue
				}
				if fp != ref {
					t.Errorf("workers=%d diverged from workers=%d under faults", w, workers[0])
				}
			}
			if refRes.Resilience == nil {
				t.Fatal("fault-tolerant run returned no resilience report")
			}
			if !refRes.Resilience.Accounted() {
				t.Fatalf("resilience report unaccounted: %s", refRes.Resilience)
			}
		})
	}
}

// TestSingleInterfaceEquivalence is the n=1 collapse: a federated crawl
// over one interface must be byte-identical — steps, coverage, checkpoint
// — to NewSmart over the same searcher, because it is the same loop.
func TestSingleInterfaceEquivalence(t *testing.T) {
	in := dblp(t)
	tk := tokenize.New()
	db := hidden.New(in.Hidden, tk, 25,
		hidden.RankByNumericColumn(in.RankColumn), hidden.ModeConjunctive)
	newSample := func() *sample.Sample {
		return sample.Bernoulli(in.Hidden, 0.08, stats.NewRNG(9))
	}

	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			env := fedEnv(in, tk)
			env.Searcher = db
			single, err := crawler.NewSmart(env, crawler.SmartConfig{
				Sample: newSample(), BatchSize: batch, Concurrency: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			sres, err := single.Run(60)
			if err != nil {
				t.Fatal(err)
			}

			fenv := fedEnv(in, tk)
			only := []crawler.Interface{{Name: "only", Searcher: db, Sample: newSample()}}
			fres := runFederated(t, fenv, only, batch, 4, 60, 0)
			// Both constructors default the estimator the same way, so they
			// name the n=1 crawl alike.
			fed, err := crawler.NewFederatedSmart(fenv, crawler.SmartConfig{}, only)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fed.Name(), single.Name(); got != want {
				t.Errorf("n=1 federated Name() = %q, want %q", got, want)
			}
			if batch == 1 {
				// Exercise the eager-selection n=1 path too.
				if _, err := crawler.NewFederatedSmart(fenv, crawler.SmartConfig{
					EagerSelection: true,
				}, []crawler.Interface{{Searcher: db}, {Searcher: db}}); err == nil {
					t.Error("EagerSelection with 2 interfaces should be rejected")
				}
			}

			sfp, ffp := fingerprint(t, sres), fingerprint(t, fres)
			if sfp != ffp {
				t.Errorf("n=1 federated crawl diverged from NewSmart (batch=%d)", batch)
			}
			for _, st := range fres.Steps {
				if st.Iface != 0 {
					t.Fatalf("single-interface step tagged iface %d", st.Iface)
				}
			}
		})
	}
}

// countingSearcher counts Search calls behind a mutex — dispatch-level
// accounting independent of the crawler's own books.
type countingSearcher struct {
	deepweb.Searcher
	mu sync.Mutex
	n  int
}

func (c *countingSearcher) Search(q deepweb.Query) ([]*relational.Record, error) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return c.Searcher.Search(q)
}

// TestFederatedChargesSumToBudget pins the budget identity across a
// federation: every dispatched attempt hits exactly one interface, and
// the settled charge — dispatched minus budget-stops minus refunds —
// equals the global budget when the crawl runs to exhaustion.
func TestFederatedChargesSumToBudget(t *testing.T) {
	in := dblp(t)
	tk := tokenize.New()
	env := fedEnv(in, tk)
	ifaces := buildIfaces(in, tk, 2, 1, 1)
	counters := make([]*countingSearcher, len(ifaces))
	for i := range ifaces {
		counters[i] = &countingSearcher{Searcher: ifaces[i].Searcher}
		ifaces[i].Searcher = counters[i]
	}
	const budget = 30
	res := runFederated(t, env, ifaces, 4, 4, budget, 3)

	rep := res.Resilience
	if rep == nil {
		t.Fatal("no resilience report")
	}
	if !rep.Accounted() {
		t.Fatalf("dispatch accounting broken: %s", rep)
	}
	dispatched := 0
	for i, c := range counters {
		if c.n == 0 {
			t.Errorf("interface %d never got an allocation", i)
		}
		dispatched += c.n
	}
	if want := rep.Dispatched - rep.BudgetStops; dispatched != want {
		t.Errorf("interfaces saw %d search calls, books say %d (%s)", dispatched, want, rep)
	}
	charged := rep.Dispatched - rep.BudgetStops - rep.Refunded
	if charged != budget {
		t.Errorf("settled charge %d != budget %d (%s)", charged, budget, rep)
	}
	perIface := make(map[int]int)
	for _, st := range res.Steps {
		perIface[st.Iface]++
	}
	total := 0
	for _, n := range perIface {
		total += n
	}
	if total != res.QueriesIssued {
		t.Errorf("per-interface step counts sum to %d, QueriesIssued %d", total, res.QueriesIssued)
	}
}

// runAdaptive executes one federated crawl with the adaptive-resilience
// knobs engaged: a (generous, never-expiring in tests) crawl deadline, a
// retry budget, and health scoring.
func runAdaptive(t *testing.T, env *crawler.Env, ifaces []crawler.Interface, workers, budget, maxAttempts int, retryBudget float64) *crawler.Result {
	t.Helper()
	h := crawler.DefaultHealthConfig()
	c, err := crawler.NewFederatedSmart(env, crawler.SmartConfig{
		BatchSize:   4,
		Concurrency: workers,
		MaxAttempts: maxAttempts,
		Deadline:    5 * time.Minute,
		RetryBudget: retryBudget,
		Health:      &h,
	}, ifaces)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// stepLog reduces a run to its interface-tagged issued-query log — the
// part of the fingerprint that is comparable across configurations whose
// checkpoints legitimately differ (a resilient run serializes its
// resilience report; a plain run has none).
func stepLog(res *crawler.Result) string {
	var sb strings.Builder
	for _, st := range res.Steps {
		fmt.Fprintf(&sb, "%d\t%s\t%d\n", st.Iface, st.Query.Key(), st.NewlyCovered)
	}
	fmt.Fprintf(&sb, "covered=%d\n", res.CoveredCount)
	return sb.String()
}

// TestAdaptiveDeterminismOracle extends the oracle to the adaptive
// knobs. On a clean federation with deadline, retry budget, and health
// scoring all enabled, two things must hold: the run stays byte-identical
// at any worker count, and its issued-query log matches the knobs-off
// baseline exactly — health scores stay at 1.0, the retry bucket is never
// consulted, and the deadline never fires, so the adaptive machinery is
// invisible until something actually fails.
func TestAdaptiveDeterminismOracle(t *testing.T) {
	in := dblp(t)
	tk := tokenize.New()
	env := fedEnv(in, tk)
	seeds := []uint64{1, 2, 3}
	workers := []int{1, 4, 16}
	if testing.Short() {
		seeds = []uint64{1}
		workers = []int{1, 4}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base := runFederated(t, env, buildIfaces(in, tk, 3, seed, -1), 4, 1, 50, 0)
			var ref string
			for _, w := range workers {
				res := runAdaptive(t, env, buildIfaces(in, tk, 3, seed, -1), w, 50, 0, 0.1)
				if log := stepLog(res); log != stepLog(base) {
					t.Errorf("workers=%d: adaptive clean run diverged from knobs-off baseline\n--- baseline ---\n%s--- adaptive ---\n%s",
						w, stepLog(base), log)
				}
				fp := fingerprint(t, res)
				if ref == "" {
					ref = fp
					continue
				}
				if fp != ref {
					t.Errorf("workers=%d diverged from workers=%d with adaptive knobs on", w, workers[0])
				}
			}
		})
	}
}

// TestAdaptiveDeterminismUnderFaults repeats the faulted oracle with the
// full adaptive stack — deadline plumbing, retry budget, health-scored
// allocation — on a three-source federation with a seeded transient10
// injector on one interface. Health decay, probe grants, and retry-budget
// withdrawals all happen in the merge stage in selection order, so the
// run (steps, coverage, checkpoint, resilience report) must be
// byte-identical at any worker count and across reruns.
func TestAdaptiveDeterminismUnderFaults(t *testing.T) {
	in := dblp(t)
	tk := tokenize.New()
	env := fedEnv(in, tk)
	seeds := []uint64{1, 2, 3}
	workers := []int{1, 4, 16}
	if testing.Short() {
		seeds = []uint64{2}
		workers = []int{1, 4}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var ref string
			var refRes *crawler.Result
			for _, w := range workers {
				res := runAdaptive(t, env, buildIfaces(in, tk, 3, seed, 1), w, 50, 3, 0.3)
				fp := fingerprint(t, res)
				if ref == "" {
					ref, refRes = fp, res
					continue
				}
				if fp != ref {
					t.Errorf("workers=%d diverged from workers=%d under faults with adaptive knobs", w, workers[0])
				}
			}
			// Rerun the middle worker count: same bytes again.
			again := runAdaptive(t, env, buildIfaces(in, tk, 3, seed, 1), 4, 50, 3, 0.3)
			if fingerprint(t, again) != ref {
				t.Errorf("rerun diverged from itself with adaptive knobs")
			}
			if refRes.Resilience == nil {
				t.Fatal("adaptive faulted run returned no resilience report")
			}
			if !refRes.Resilience.Accounted() {
				t.Fatalf("resilience report unaccounted: %s", refRes.Resilience)
			}
		})
	}
}
