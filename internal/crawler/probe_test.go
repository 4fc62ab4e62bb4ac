package crawler

import (
	"testing"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/match"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

// constSearcher answers every query with the same records.
type constSearcher struct {
	recs []*relational.Record
}

func (s constSearcher) Search(deepweb.Query) ([]*relational.Record, error) { return s.recs, nil }
func (s constSearcher) K() int                                             { return 10 }

func localTable(docs ...string) *relational.Table {
	t := relational.NewTable("local", []string{"doc"})
	for _, d := range docs {
		t.Append(d)
	}
	return t
}

func hrec(id int, doc string) *relational.Record {
	return &relational.Record{ID: id, Values: []string{doc}}
}

// TestAbsorbProbesEachHiddenIDOnce absorbs hidden records more than once —
// the same pointer, as a stale page shares its result slice, and a clone,
// as a repeated query over HTTP decodes afresh — and checks the tracker
// probes each ID once yet logs the same steps, coverage and matches as a
// join that probes every returned record.
func TestAbsorbProbesEachHiddenIDOnce(t *testing.T) {
	tk := tokenize.New()
	local := localTable("thai house", "thai noodle house", "steak house", "pizza place", "noodle bar", "burger joint")
	sim := func(d, h *relational.Record) bool {
		return match.JaccardSim(d.Tokens(tk), h.Tokens(tk)) >= 0.5
	}
	probes := map[int]int{}
	counting := match.FuncMatcher(func(d, h *relational.Record) bool {
		if d.ID == 0 { // the full-scan join visits local 0 once per probe
			probes[h.ID]++
		}
		return sim(d, h)
	})
	h1, h2, h3, h4 := hrec(1, "Thai House"), hrec(2, "noodle bar"), hrec(3, "steak house"), hrec(4, "pizza")
	batches := [][]*relational.Record{
		{h1, h2},
		{h2.Clone(), h3},
		{h1},
		{h4, h1.Clone(), h3},
	}

	tr := newTracker(&Env{Local: local, Tokenizer: tk, Matcher: counting})
	var gotNewly [][]int
	for i, b := range batches {
		q := deepweb.Query{string(rune('a' + i))}
		gotNewly = append(gotNewly, tr.absorbSized(q, 0, b, len(b), source{k: 10}))
	}

	// Reference: probe every returned record, first match wins.
	ref := match.NewJoiner(local.Records, tk, match.FuncMatcher(sim))
	covered := make([]bool, local.Len())
	matches := map[int]*relational.Record{}
	cum := 0
	for i, b := range batches {
		var newly []int
		for _, h := range b {
			for _, d := range ref.Matches(h) {
				if !covered[d] {
					covered[d] = true
					matches[d] = h
					newly = append(newly, d)
				}
			}
		}
		cum += len(newly)
		st := tr.res.Steps[i]
		if st.NewlyCovered != len(newly) || st.CumulativeCovered != cum || len(gotNewly[i]) != len(newly) {
			t.Fatalf("step %d: newly %d (%v) cumulative %d, want %d (%v) %d",
				i, st.NewlyCovered, gotNewly[i], st.CumulativeCovered, len(newly), newly, cum)
		}
		for k := range newly {
			if gotNewly[i][k] != newly[k] {
				t.Fatalf("step %d: newly %v, want %v", i, gotNewly[i], newly)
			}
		}
	}
	for d := range covered {
		if tr.res.Covered[d] != covered[d] || tr.res.Matches[d] != matches[d] {
			t.Fatalf("local %d: covered %v by %v, want %v by %v",
				d, tr.res.Covered[d], tr.res.Matches[d], covered[d], matches[d])
		}
	}
	if cum == 0 || cum == local.Len() {
		t.Fatalf("fixture covers %d/%d records; want a proper subset", cum, local.Len())
	}
	for id, n := range probes {
		if n != 1 {
			t.Errorf("hidden %d probed %d times, want once", id, n)
		}
	}
	if len(probes) != 4 {
		t.Errorf("probed %d hidden records, want 4", len(probes))
	}
}

// TestFederatedSameRawIDProbedPerInterface: two interfaces return the same
// raw hidden ID for different entities. IDs are namespaced per interface,
// so probing once per ID must still match both.
func TestFederatedSameRawIDProbedPerInterface(t *testing.T) {
	tk := tokenize.New()
	env := &Env{Local: localTable("alpha beta", "gamma delta"), Tokenizer: tk, Matcher: match.NewExact(tk)}
	s, err := NewFederatedSmart(env, SmartConfig{}, []Interface{
		{Name: "a", Searcher: constSearcher{[]*relational.Record{hrec(5, "alpha beta")}}},
		{Name: "b", Searcher: constSearcher{[]*relational.Record{hrec(5, "gamma delta")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredCount != 2 {
		t.Fatalf("covered %v, want both records", res.Covered)
	}
	for d, want := range []string{"alpha beta", "gamma delta"} {
		if got := res.Matches[d].Value(0); got != want {
			t.Errorf("local %d matched %q, want %q", d, got, want)
		}
	}
}

// TestResumeProbesPreviouslyCrawledRecord: a hidden record crawled by an
// earlier session is in the resumed Result.Crawled but has not been
// probed by this run, so returning it again must still match it.
func TestResumeProbesPreviouslyCrawledRecord(t *testing.T) {
	tk := tokenize.New()
	h := hrec(5, "gamma delta")
	env := &Env{
		Local:     localTable("alpha beta", "gamma delta"),
		Searcher:  constSearcher{[]*relational.Record{h}},
		Tokenizer: tk,
		Matcher:   match.NewExact(tk),
	}
	s, err := NewSmart(env, SmartConfig{Resume: &Result{
		Covered: make([]bool, 2),
		Crawled: map[int]*relational.Record{5: h},
		Matches: map[int]*relational.Record{},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Covered[1] || res.Matches[1] != h {
		t.Fatalf("covered %v matches %v; want local 1 matched by the re-returned record", res.Covered, res.Matches)
	}
}
