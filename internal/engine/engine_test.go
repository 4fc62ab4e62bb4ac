package engine_test

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/dataset"
	"smartcrawl/internal/deepweb/httpapi"
	"smartcrawl/internal/engine"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

// Shared fixture: one small DBLP instance, generated once.
var (
	fixOnce    sync.Once
	fixErr     error
	fixLocal   string // local table as CSV; each run parses a fresh copy
	fixTable   *relational.Table
	fixRankCol int
	fixHidden  string // hidden CSV, written under the first caller's TempDir
)

func fixture(t *testing.T) {
	t.Helper()
	fixOnce.Do(func() {
		in, err := dataset.GenerateDBLP(dataset.DBLPConfig{
			CorpusSize: 1600, HiddenSize: 420, LocalSize: 110, Seed: 5,
		})
		if err != nil {
			fixErr = err
			return
		}
		var buf bytes.Buffer
		if fixErr = in.Local.WriteCSV(&buf); fixErr != nil {
			return
		}
		fixLocal = buf.String()
		fixTable, fixRankCol = in.Hidden, in.RankColumn
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	var buf bytes.Buffer
	if err := fixTable.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	fixHidden = filepath.Join(t.TempDir(), "hidden.csv")
	if err := os.WriteFile(fixHidden, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// request returns the CLI defaults over a fresh copy of the local table
// (Run enriches it in place).
func request(t *testing.T) engine.Request {
	t.Helper()
	local, err := relational.ReadCSV("local", strings.NewReader(fixLocal))
	if err != nil {
		t.Fatal(err)
	}
	req := engine.Defaults()
	req.Local = local
	req.Budget = 40
	req.Workers = 2
	req.Batch = 4
	return req
}

// crawl is the observable outcome of a run: query log, covered local IDs,
// resilience report, and the enriched table.
type crawl struct {
	queries    []string
	covered    []int
	resilience *crawler.Resilience
	enriched   string
}

func run(t *testing.T, req engine.Request) crawl {
	t.Helper()
	out, err := engine.Run(&req)
	if err != nil {
		t.Fatal(err)
	}
	var c crawl
	for _, st := range out.Result.Steps {
		c.queries = append(c.queries, fmt.Sprintf("%d:%s", st.Iface, st.Query.Key()))
	}
	for d, ok := range out.Result.Covered {
		if ok {
			c.covered = append(c.covered, d)
		}
	}
	c.resilience = out.Result.Resilience
	var buf bytes.Buffer
	if err := out.Local.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	c.enriched = buf.String()
	return c
}

func sameCrawl(t *testing.T, a, b crawl) {
	t.Helper()
	if len(a.queries) == 0 {
		t.Fatal("crawl issued no queries")
	}
	if !reflect.DeepEqual(a.queries, b.queries) {
		t.Errorf("query logs differ:\n%v\n%v", a.queries, b.queries)
	}
	if !reflect.DeepEqual(a.covered, b.covered) {
		t.Errorf("covered IDs differ: %d vs %d records", len(a.covered), len(b.covered))
	}
	if !reflect.DeepEqual(a.resilience, b.resilience) {
		t.Errorf("resilience reports differ:\n%v\n%v", a.resilience, b.resilience)
	}
	if a.enriched != b.enriched {
		t.Error("enriched tables differ")
	}
}

// TestHiddenMatchesOneSpecInterfaces runs the simulated -hidden path with
// the whole client stack on (faults, pacing, retries, an explicit
// breaker) and the same interface written as a one-spec Interfaces
// grammar: both must crawl identically.
func TestHiddenMatchesOneSpecInterfaces(t *testing.T) {
	fixture(t)
	single := request(t)
	single.Hidden = fixHidden
	single.RankColumn = fixRankCol
	single.Theta = 0.05
	single.Faults = "severe"
	single.FaultSeed = 3
	single.Rate, single.Burst = 5000, 50
	single.Retries = 1
	single.Breaker = 4

	fed := request(t)
	fed.Interfaces = fmt.Sprintf("hidden=%s,k=50,rank-column=%d,theta=0.05,seed=42,"+
		"faults=severe,fault-seed=3,rate=5000,burst=50,retries=1,breaker=4", fixHidden, fixRankCol)

	a := run(t, single)
	if a.resilience == nil || a.resilience.Requeued == 0 {
		t.Fatalf("severe faults exercised no requeue: %v", a.resilience)
	}
	sameCrawl(t, a, run(t, fed))
}

// TestURLMatchesOneSpecInterfaces is the same check over a url backend: a
// hidden database behind an in-process httpapi.Server, with the keyword
// sample drawn through it and faults injected client-side.
func TestURLMatchesOneSpecInterfaces(t *testing.T) {
	fixture(t)
	tk := tokenize.New()
	db := hidden.New(fixTable, tk, 50, hidden.RankByNumericColumn(fixRankCol), hidden.ModeConjunctive)
	srv := httptest.NewServer(httpapi.NewServer(db, tk, nil).Handler())
	defer srv.Close()

	single := request(t)
	single.URL = srv.URL
	single.SampleTarget = 30
	single.Faults = "transient10"
	single.Retries = 1
	single.EnrichColumns = []string{"col2", "col3"}
	single.Fuzzy = 0.6

	fed := request(t)
	fed.Interfaces = fmt.Sprintf("url=%s,sample-target=30,seed=42,faults=transient10,"+
		"fault-seed=1,retries=1,breaker=5", srv.URL)
	fed.EnrichColumns = []string{"col2", "col3"}
	fed.Fuzzy = 0.6

	a := run(t, single)
	if a.resilience == nil || a.resilience.Requeued == 0 {
		t.Fatalf("transient10 exercised no requeue: %v", a.resilience)
	}
	sameCrawl(t, a, run(t, fed))
}

// TestThetaZeroIsSampleFree checks that θ = 0 runs the smart strategy
// without a sample, which is exactly QSel-Simple.
func TestThetaZeroIsSampleFree(t *testing.T) {
	fixture(t)
	smart := request(t)
	smart.Hidden = fixHidden
	smart.Theta = 0
	simple := smart
	simple.Local = request(t).Local
	simple.Strategy = "simple"
	sameCrawl(t, run(t, smart), run(t, simple))
}

func TestValidate(t *testing.T) {
	fixture(t)
	cases := []struct {
		name string
		mut  func(*engine.Request)
		want string // "" = valid
	}{
		{"hidden", func(r *engine.Request) {}, ""},
		{"theta zero", func(r *engine.Request) { r.Theta = 0 }, ""},
		{"theta one", func(r *engine.Request) { r.Theta = 1 }, ""},
		{"url sample-free", func(r *engine.Request) { r.Hidden, r.URL, r.SampleTarget = "", "http://x", 0 }, ""},
		{"empty local", func(r *engine.Request) { r.Local = nil }, "empty local table"},
		{"no interface", func(r *engine.Request) { r.Hidden = "" }, "exactly one of Hidden and URL"},
		{"two interfaces", func(r *engine.Request) { r.URL = "http://x" }, "exactly one of Hidden and URL"},
		{"theta negative", func(r *engine.Request) { r.Theta = -0.1 }, "theta -0.1 outside [0, 1]"},
		{"theta above one", func(r *engine.Request) { r.Theta = 2 }, "theta 2 outside [0, 1]"},
		{"sample target negative", func(r *engine.Request) { r.Hidden, r.URL, r.SampleTarget = "", "http://x", -1 }, "sample-target -1"},
		{"full without theta", func(r *engine.Request) { r.Strategy, r.Theta = "full", 0 }, "full needs a sample"},
		{"full without sample target", func(r *engine.Request) {
			r.Strategy, r.Hidden, r.URL, r.SampleTarget = "full", "", "http://x", 0
		}, "full needs a sample"},
		{"bad faults", func(r *engine.Request) { r.Faults = "no-such" }, "fault spec"},
		{"interfaces plus hidden", func(r *engine.Request) { r.Interfaces = "hidden=a.csv" }, "replaces"},
		{"interfaces plus faults", func(r *engine.Request) {
			r.Hidden, r.Interfaces, r.Faults = "", "hidden=a.csv", "transient10"
		}, "per interface"},
		{"interfaces bad theta", func(r *engine.Request) { r.Hidden, r.Interfaces = "", "hidden=a.csv,theta=2" }, "theta 2"},
		{"interfaces duplicate", func(r *engine.Request) {
			r.Hidden, r.Interfaces = "", "name=a,hidden=a.csv;name=a,hidden=b.csv"
		}, "duplicate interface name"},
		{"interfaces naive", func(r *engine.Request) { r.Hidden, r.Interfaces, r.Strategy = "", "hidden=a.csv", "naive" }, "federation supports"},
		{"bad strategy", func(r *engine.Request) { r.Strategy = "psychic" }, "unknown strategy"},
		{"workers", func(r *engine.Request) { r.Workers = 0 }, "Workers"},
		{"wal without checkpoint", func(r *engine.Request) { r.WAL = "x.wal" }, "WAL requires Checkpoint"},
		{"pool sample without cache", func(r *engine.Request) { r.PoolSample = 10 }, "PoolSample requires CorpusCache"},
		{"health without federation", func(r *engine.Request) { r.Health = true }, "Health"},
		{"total budget without checkpoint", func(r *engine.Request) { r.TotalBudget = true }, "TotalBudget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := request(t)
			req.Hidden = fixHidden
			tc.mut(&req)
			err := req.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Validate() = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Validate() = %v, want containing %q", err, tc.want)
			}
		})
	}
}
