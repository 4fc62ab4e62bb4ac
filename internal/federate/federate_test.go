package federate_test

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/deepweb/httpapi"
	"smartcrawl/internal/federate"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

func TestParseSpecs(t *testing.T) {
	specs, err := federate.ParseSpecs(
		"name=a,hidden=x.csv,k=10,rank-column=3,theta=0.01,seed=5;" +
			"name=b,url=http://h,sample-target=50,faults=timeout=0.05+truncate=0.1," +
			"fault-seed=3,fault-latency=10ms,rate=5,burst=2,retries=3,breaker=4")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("parsed %d specs, want 2", len(specs))
	}
	a, b := specs[0], specs[1]
	if a.Name != "a" || a.Hidden != "x.csv" || a.K != 10 || a.RankColumn != 3 ||
		a.Theta != 0.01 || a.Seed != 5 {
		t.Errorf("spec a parsed wrong: %+v", a)
	}
	if a.Burst != 10 || a.FaultSeed != 1 {
		t.Errorf("spec a lost its defaults: %+v", a)
	}
	if b.Name != "b" || b.URL != "http://h" || b.SampleTarget != 50 ||
		b.Faults != "timeout=0.05+truncate=0.1" || b.FaultSeed != 3 ||
		b.FaultLatency != 10*time.Millisecond || b.Rate != 5 || b.Burst != 2 ||
		b.Retries != 3 || b.Breaker != 4 {
		t.Errorf("spec b parsed wrong: %+v", b)
	}
}

func TestParseSpecsRejects(t *testing.T) {
	for _, bad := range []string{
		"",                                   // empty
		";;",                                 // only separators
		"k=10",                               // neither hidden nor url
		"hidden=a.csv,url=http://x",          // both backends
		"hidden=a.csv,bogus=1",               // unknown key
		"hidden=a.csv,k",                     // not key=value
		"hidden=a.csv,k=ten",                 // bad int
		"hidden=a.csv,faults=no-such",        // bad fault grammar, caught at parse
		"hidden=a.csv,fault-latency=forever", // bad duration
		"hidden=a.csv,theta=2",               // θ above 1
		"hidden=a.csv,theta=-0.1",            // θ below 0
		"hidden=a.csv,theta=NaN",             // θ not a ratio
		"url=http://x,sample-target=-1",      // negative sample target
		"name=a,hidden=x.csv;name=a,url=http://y", // duplicate name
		"name=h2,hidden=x.csv;hidden=y.csv",       // default h2 collides
	} {
		if _, err := federate.ParseSpecs(bad); err == nil {
			t.Errorf("ParseSpecs(%q) accepted", bad)
		}
	}
}

// TestParseSpecsNames checks the naming contract: unnamed specs default
// to h1..hn by position, and a sample-free spec (theta=0, sample-target=0)
// is valid.
func TestParseSpecsNames(t *testing.T) {
	specs, err := federate.ParseSpecs("hidden=a.csv,theta=0;name=x,url=http://h,sample-target=0;hidden=b.csv,theta=1")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"h1", "x", "h3"} {
		if specs[i].Name != want {
			t.Errorf("spec %d named %q, want %q", i, specs[i].Name, want)
		}
	}
}

// writeCSV materializes a table as a CSV fixture file.
func writeCSV(t *testing.T, dir, name string, tbl *relational.Table) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tbl.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBuildAllFromCSV drives the CSV backend path end to end: parse the
// grammar, build the federation, run a short crawl.
func TestBuildAllFromCSV(t *testing.T) {
	in := dblp(t)
	dir := t.TempDir()
	n := in.Hidden.Len()
	pa := writeCSV(t, dir, "ha.csv", slice(in.Hidden, "ha", 0, n*2/3))
	pb := writeCSV(t, dir, "hb.csv", slice(in.Hidden, "hb", n/3, n))

	specs, err := federate.ParseSpecs(fmt.Sprintf(
		"name=a,hidden=%s,k=30,rank-column=%d,theta=0.05,seed=3;"+
			"hidden=%s,k=15,rank-column=%d,faults=transient10,fault-seed=5,breaker=3",
		pa, in.RankColumn, pb, in.RankColumn))
	if err != nil {
		t.Fatal(err)
	}
	if !federate.AnyFaults(specs) {
		t.Error("AnyFaults missed the transient10 spec")
	}
	tk := tokenize.New()
	fed, err := federate.BuildAll(specs, in.Local, tk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fed.Ifaces[0].Name, fed.Ifaces[1].Name; a != "a" || b != "h2" {
		t.Errorf("interface names [%s %s], want [a h2] (unnamed specs default positionally)", a, b)
	}
	if len(fed.HiddenSchema()) != len(in.Hidden.Schema) {
		t.Errorf("HiddenSchema %v, want the CSV schema %v", fed.HiddenSchema(), in.Hidden.Schema)
	}
	if fed.Ifaces[0].Sample == nil {
		t.Error("theta>0 spec built no sample")
	}
	if fed.Ifaces[1].Breaker == nil {
		t.Error("breaker=3 spec built no breaker")
	}

	env := fedEnv(in, tk)
	c, err := crawler.NewFederatedSmart(env, crawler.SmartConfig{BatchSize: 4, MaxAttempts: 3}, fed.Ifaces)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(40)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredCount == 0 {
		t.Error("CSV-backed federation covered nothing")
	}
}

func TestBuildRejectsMissingTable(t *testing.T) {
	sp := federate.Spec{Name: "x", Hidden: "/no/such/file.csv", K: 10, RankColumn: -1}
	if _, _, err := sp.Build(dblp(t).Local, tokenize.New(), nil); err == nil {
		t.Fatal("Build accepted a missing CSV")
	}
}

// TestHiddenSchemaSynthesized covers the all-remote fallback: with no CSV
// table, the schema comes from the first sampled interface as col0..colN.
func TestHiddenSchemaSynthesized(t *testing.T) {
	in := dblp(t)
	fed := &federate.Federation{
		Ifaces: []crawler.Interface{
			{Name: "a"},
			{Name: "b", Sample: sample.Bernoulli(in.Hidden, 0.1, stats.NewRNG(1))},
		},
		Tables: []*relational.Table{nil, nil},
	}
	schema := fed.HiddenSchema()
	if len(schema) != len(in.Hidden.Schema) || schema[0] != "col0" {
		t.Fatalf("synthesized schema %v, want col0..col%d", schema, len(in.Hidden.Schema)-1)
	}
	if (&federate.Federation{}).HiddenSchema() != nil {
		t.Fatal("empty federation should have nil schema")
	}
}

// TestMultiServerE2E runs a federated crawl against two real hiddenserver
// HTTP instances — different k, transient faults on one — and checks the
// federation contract: hidden IDs stay namespaced per interface, no local
// record is double-matched, and at a saturating budget the federated
// coverage equals the union of the two single-interface crawls.
func TestMultiServerE2E(t *testing.T) {
	in := dblp(t)
	tk := tokenize.New()
	n := in.Hidden.Len()
	tblA := slice(in.Hidden, "ha", 0, n*2/3)
	tblB := slice(in.Hidden, "hb", n/3, n)
	dbA := hidden.New(tblA, tk, 30, hidden.RankByNumericColumn(in.RankColumn), hidden.ModeConjunctive)
	dbB := hidden.New(tblB, tk, 15, hidden.RankByNumericColumn(in.RankColumn), hidden.ModeConjunctive)
	profile, err := deepweb.ParseFaultProfile("transient10")
	if err != nil {
		t.Fatal(err)
	}
	profile.Seed = 4

	srvA := httptest.NewServer(httpapi.NewServer(dbA, tk, nil).Handler())
	defer srvA.Close()
	srvB := httptest.NewServer(httpapi.NewServer(deepweb.NewFaulty(dbB, profile), tk, nil).Handler())
	defer srvB.Close()

	// Saturating budget: the crawl self-terminates when no unissued query
	// promises benefit, well before this.
	const saturating = 5000
	runSpec := func(spec string) *crawler.Result {
		t.Helper()
		specs, err := federate.ParseSpecs(spec)
		if err != nil {
			t.Fatal(err)
		}
		fed, err := federate.BuildAll(specs, in.Local, tk, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := crawler.NewFederatedSmart(fedEnv(in, tk), crawler.SmartConfig{
			BatchSize: 4, Concurrency: 4, MaxAttempts: 5,
		}, fed.Ifaces)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(saturating)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	specA := fmt.Sprintf("name=a,url=%s", srvA.URL)
	specB := fmt.Sprintf("name=b,url=%s,retries=2,breaker=4", srvB.URL)
	fedRes := runSpec(specA + ";" + specB)
	resA := runSpec(specA)
	resB := runSpec(specB)

	// Hidden IDs from the two interfaces must not collide: federated runs
	// namespace them as id*n + iface.
	for _, st := range fedRes.Steps {
		for _, id := range st.NewHidden {
			if id%2 != st.Iface {
				t.Fatalf("hidden id %d absorbed by interface %d: namespacing broken", id, st.Iface)
			}
		}
	}

	// First match wins exactly once per local record: the overlap region
	// is reachable through both interfaces, yet no double counting.
	if len(fedRes.Matches) != fedRes.CoveredCount {
		t.Errorf("%d matches for %d covered records", len(fedRes.Matches), fedRes.CoveredCount)
	}
	covered := 0
	for _, c := range fedRes.Covered {
		if c {
			covered++
		}
	}
	if covered != fedRes.CoveredCount {
		t.Errorf("coverage bitmap has %d set, CoveredCount %d", covered, fedRes.CoveredCount)
	}

	// Merged enrichment equals the union of the single-interface crawls.
	for d := range fedRes.Covered {
		want := resA.Covered[d] || resB.Covered[d]
		if fedRes.Covered[d] != want {
			t.Errorf("local record %d: federated covered=%t, singles union=%t",
				d, fedRes.Covered[d], want)
		}
	}
	if fedRes.CoveredCount <= resA.CoveredCount && fedRes.CoveredCount <= resB.CoveredCount {
		t.Errorf("federation (%d covered) gained nothing over singles (%d, %d)",
			fedRes.CoveredCount, resA.CoveredCount, resB.CoveredCount)
	}
}
