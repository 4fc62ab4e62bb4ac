package match

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"smartcrawl/internal/relational"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

func rec(id int, doc string) *relational.Record {
	return &relational.Record{ID: id, Values: []string{doc}}
}

func TestExactMatcher(t *testing.T) {
	tk := tokenize.New()
	m := NewExact(tk)
	cases := []struct {
		a, b string
		want bool
	}{
		{"Thai House", "thai house", true},
		{"Thai House", "House Thai", true}, // token-set equality
		{"Thai House", "Thai House!", true},
		{"Thai House", "Thai Houses", false},
		{"Thai House", "Thai", false},
		{"", "", false}, // token-less records match nothing
	}
	for _, c := range cases {
		if got := m.Match(rec(0, c.a), rec(1, c.b)); got != c.want {
			t.Errorf("Exact(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaccardSim(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{[]string{"a", "b"}, []string{"a", "b"}, 1},
		{[]string{"a", "b"}, []string{"b", "c"}, 1.0 / 3},
		{[]string{"a"}, []string{"b"}, 0},
		{nil, nil, 1},
		{[]string{"a"}, nil, 0},
		{[]string{"a", "b", "c", "d"}, []string{"a", "b", "c"}, 0.75},
	}
	for _, c := range cases {
		if got := JaccardSim(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jaccard(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaccardMatcherThreshold(t *testing.T) {
	tk := tokenize.New()
	m := NewJaccard(tk, 0.75)
	// 3 shared of 4 union = 0.75: match.
	if !m.Match(rec(0, "alpha beta gamma delta"), rec(1, "alpha beta gamma")) {
		t.Fatal("0.75 similarity should match at threshold 0.75")
	}
	// 2 shared of 4 union = 0.5: no match.
	if m.Match(rec(0, "alpha beta gamma delta"), rec(1, "alpha beta")) {
		t.Fatal("0.5 similarity should not match")
	}
}

func TestNewJaccardPanicsOnBadThreshold(t *testing.T) {
	for _, th := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("threshold %v should panic", th)
				}
			}()
			NewJaccard(tokenize.New(), th)
		}()
	}
}

func TestSimilarityFunctions(t *testing.T) {
	a := []string{"w", "x", "y"}
	b := []string{"x", "y", "z", "q"}
	// overlap = 2
	if got := DiceSim(a, b); math.Abs(got-4.0/7) > 1e-12 {
		t.Errorf("Dice = %v", got)
	}
	if got := OverlapSim(a, b); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Overlap = %v", got)
	}
	if got := CosineSim(a, b); math.Abs(got-2/math.Sqrt(12)) > 1e-12 {
		t.Errorf("Cosine = %v", got)
	}
}

func TestSimilarityBoundsAndSymmetry(t *testing.T) {
	rng := stats.NewRNG(5)
	vocab := []string{"a", "b", "c", "d", "e", "f"}
	randSet := func() []string {
		n := rng.Intn(5)
		seen := map[string]bool{}
		var out []string
		for i := 0; i < n; i++ {
			w := vocab[rng.Intn(len(vocab))]
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
		return out
	}
	sims := []func(a, b []string) float64{JaccardSim, DiceSim, OverlapSim, CosineSim}
	for trial := 0; trial < 500; trial++ {
		a, b := randSet(), randSet()
		for i, f := range sims {
			ab, ba := f(a, b), f(b, a)
			if math.Abs(ab-ba) > 1e-12 {
				t.Fatalf("sim %d not symmetric on %v %v", i, a, b)
			}
			if ab < -1e-12 || ab > 1+1e-12 {
				t.Fatalf("sim %d out of [0,1]: %v", i, ab)
			}
		}
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"rest", "restaurant", 6},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinTriangleProperty(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 30 || len(b) > 30 {
			return true
		}
		d := Levenshtein(a, b)
		if d != Levenshtein(b, a) {
			return false
		}
		la, lb := len([]rune(a)), len([]rune(b))
		diff := la - lb
		if diff < 0 {
			diff = -diff
		}
		maxLen := la
		if lb > maxLen {
			maxLen = lb
		}
		return d >= diff && d <= maxLen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJoinerExact(t *testing.T) {
	tk := tokenize.New()
	locals := []*relational.Record{
		rec(0, "Thai House"),
		rec(1, "Steak House"),
		rec(2, "thai HOUSE"), // duplicate key of 0
	}
	j := NewJoiner(locals, tk, NewExact(tk))
	if got := j.Matches(rec(100, "Thai House")); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Matches = %v", got)
	}
	if got := j.Matches(rec(100, "Pizza Place")); got != nil {
		t.Fatalf("Matches = %v, want nil", got)
	}
	covered := j.CoveredBy([]*relational.Record{
		rec(100, "Steak House"),
		rec(101, "Thai House"),
		rec(102, "Steak House"), // dup in batch
	})
	if !reflect.DeepEqual(covered, []int{0, 1, 2}) {
		t.Fatalf("CoveredBy = %v", covered)
	}
}

// bruteForce is the full-scan join the Joiner must reproduce.
func bruteForce(m Matcher, locals []*relational.Record, h *relational.Record) []int {
	var want []int
	for i, d := range locals {
		if m.Match(d, h) {
			want = append(want, i)
		}
	}
	return want
}

// checkJoiner fails unless j returns, for every probe, exactly the local
// records m matches, and CoveredBy returns their union.
func checkJoiner(t *testing.T, j *Joiner, m Matcher, locals, probes []*relational.Record) {
	t.Helper()
	union := map[int]bool{}
	for _, h := range probes {
		want := bruteForce(m, locals, h)
		got := j.Matches(h)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("probe %q: got %v want %v", h.Values, got, want)
		}
		for _, i := range want {
			union[i] = true
		}
	}
	want := []int{}
	for i := range union {
		want = append(want, i)
	}
	sort.Ints(want)
	if got := append([]int{}, j.CoveredBy(probes)...); !reflect.DeepEqual(got, want) {
		t.Fatalf("CoveredBy = %v, want %v", got, want)
	}
}

// randDoc draws 1..maxLen words (with repeats) from vocab; with
// probability pEmpty it returns an empty or all-stop-word document.
func randDoc(rng *stats.RNG, vocab []string, maxLen int, pEmpty float64) string {
	if rng.Float64() < pEmpty {
		return []string{"", "the of and", "  -- "}[rng.Intn(3)]
	}
	n := 1 + rng.Intn(maxLen)
	doc := ""
	for i := 0; i < n; i++ {
		doc += vocab[rng.Intn(len(vocab))] + " "
	}
	return doc
}

// TestJoinerJaccardMatchesBruteForce is the key property test: the
// prefix-filtered join must return exactly the records a full scan returns.
func TestJoinerJaccardMatchesBruteForce(t *testing.T) {
	tk := tokenize.New()
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("tok%02d", i)
	}
	unicodeVocab := []string{
		"Café", "CAFÉ", "café", "Straße", "STRASSE", "İstanbul", "istanbul",
		"ΣΊΣΥΦΟΣ", "σίσυφος", "ǅungla", "ǆungla", "Noodle", "NOODLE", "naïve",
		"東京", "ϒ", "x1", "X1",
	}
	// locals draw from the first 30 words; probes from all 40, so about a
	// quarter of probe tokens are unknown to the local vocabulary.
	localVocab := vocab[:30]
	cases := []struct {
		name         string
		locals, hVoc []string
		maxLen       int
		pEmpty       float64
		cols         int // 0: single-column records, whole-record matcher
		matcher      func(th float64) Matcher
	}{
		{"whole-record", localVocab, localVocab, 6, 0, 0,
			func(th float64) Matcher { return NewJaccard(tk, th) }},
		{"unknown-probe-tokens", localVocab, vocab, 6, 0, 0,
			func(th float64) Matcher { return NewJaccard(tk, th) }},
		{"mixed-case-unicode", unicodeVocab, unicodeVocab, 6, 0, 0,
			func(th float64) Matcher { return NewJaccard(tk, th) }},
		{"repeated-tokens", localVocab[:6], localVocab[:8], 12, 0, 0,
			func(th float64) Matcher { return NewJaccard(tk, th) }},
		{"empty-records", localVocab, vocab, 4, 0.2, 0,
			func(th float64) Matcher { return NewJaccard(tk, th) }},
		{"on-columns", localVocab, vocab, 4, 0.1, 3,
			func(th float64) Matcher { return NewJaccardOn(tk, th, []int{0, 2}, []int{1}) }},
		{"blocked-and", localVocab, vocab, 4, 0.05, 3,
			func(th float64) Matcher {
				return NewBlockedAnd(NewJaccardOn(tk, th, []int{0, 2}, []int{0, 1}),
					FuncMatcher(func(d, h *relational.Record) bool { return d.Value(1) != h.Value(2) }))
			}},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := stats.NewRNG(uint64(17 + ci))
			mk := func(id int, voc []string) *relational.Record {
				if c.cols == 0 {
					return rec(id, randDoc(rng, voc, c.maxLen, c.pEmpty))
				}
				vals := make([]string, c.cols)
				for k := range vals {
					vals[k] = randDoc(rng, voc, c.maxLen, c.pEmpty)
				}
				return &relational.Record{ID: id, Values: vals}
			}
			for _, threshold := range []float64{0.3, 0.5, 0.75, 0.9, 1.0} {
				m := c.matcher(threshold)
				locals := make([]*relational.Record, 120)
				for i := range locals {
					locals[i] = mk(i, c.locals)
				}
				probes := make([]*relational.Record, 100)
				for i := range probes {
					probes[i] = mk(1000+i, c.hVoc)
				}
				// Probing local records themselves guarantees matches at
				// every threshold.
				for i := 0; i < 20; i++ {
					probes = append(probes, locals[rng.Intn(len(locals))].Clone())
				}
				checkJoiner(t, NewJoiner(locals, tk, m), m, locals, probes)
			}
		})
	}
}

// FuzzJoinerJaccard checks the Joiner against the brute-force join on
// fuzzed documents and thresholds: the local records are data's lines,
// every line is also probed, and so is probe.
func FuzzJoinerJaccard(f *testing.F) {
	f.Add("Thai House\nthai house noodle\nSteak House\n\nthe of", "HOUSE thai", uint8(200))
	f.Add("a b c d\na b c\nb c d e\nCafé CAFÉ café", "a b x y", uint8(128))
	f.Add("x x x y\ny\nx y z w v u", "x y z", uint8(1))
	f.Add("Ωmega ΣΊΣΥΦΟΣ\n\xff\xfe bad\nǅ ǆ", "σίσυφος ωmega", uint8(255))
	tk := tokenize.New()
	f.Fuzz(func(t *testing.T, data, probe string, th uint8) {
		threshold := (float64(th) + 1) / 256
		lines := strings.Split(data, "\n")
		if len(lines) > 64 {
			lines = lines[:64]
		}
		locals := make([]*relational.Record, len(lines))
		probes := make([]*relational.Record, 0, len(lines)+1)
		for i, l := range lines {
			locals[i] = rec(i, l)
			probes = append(probes, rec(1000+i, l))
		}
		probes = append(probes, rec(999, probe))
		m := NewJaccard(tk, threshold)
		checkJoiner(t, NewJoiner(locals, tk, m), m, locals, probes)
	})
}

// TestTokenlessRecordsMatchNothing pins that a record whose match
// projection has no tokens matches nothing — under both matchers and
// both join paths — even against another token-less record.
func TestTokenlessRecordsMatchNothing(t *testing.T) {
	tk := tokenize.New()
	locals := []*relational.Record{
		{ID: 0, Values: []string{"", "Thai House"}},
		{ID: 1, Values: []string{"the of", "Steak House"}},
		{ID: 2, Values: []string{"Thai House", ""}},
	}
	cases := []struct {
		name  string
		m     Matcher
		probe []string
	}{
		{"exact/empty", NewExact(tk), []string{"", ""}},
		{"exact/stop-words", NewExact(tk), []string{"and", "-"}},
		{"exact-on/empty-column", NewExactOn(tk, []int{0}, []int{1}), []string{"Thai House", ""}},
		{"jaccard/empty", NewJaccard(tk, 0.5), []string{"", ""}},
		{"jaccard/stop-words", NewJaccard(tk, 0.5), []string{"and", "-"}},
		{"jaccard-on/empty-column", NewJaccardOn(tk, 1, []int{0}, []int{1}), []string{"Thai House", "  "}},
		{"blocked/empty", NewBlockedAnd(NewJaccardOn(tk, 0.5, []int{0}, []int{0})), []string{"", "x"}},
	}
	for _, c := range cases {
		h := &relational.Record{ID: 9, Values: c.probe}
		for i, d := range locals {
			if c.m.Match(d, h) {
				t.Errorf("%s: Match(local %d, %q) = true", c.name, i, c.probe)
			}
		}
		if got := NewJoiner(locals, tk, c.m).Matches(h); len(got) != 0 {
			t.Errorf("%s: Joiner.Matches(%q) = %v, want none", c.name, c.probe, got)
		}
	}
	// The projection a token-less local record is indexed under must not
	// make it a candidate for any probe.
	for _, m := range []Matcher{NewExactOn(tk, []int{0}, []int{0}), NewJaccardOn(tk, 0.1, []int{0}, []int{0})} {
		j := NewJoiner(locals, tk, m)
		for _, probe := range []string{"", "the", "Thai House"} {
			h := &relational.Record{ID: 9, Values: []string{probe}}
			for _, i := range j.Matches(h) {
				if i != 2 {
					t.Errorf("%T: probe %q matched token-less local %d", m, probe, i)
				}
			}
		}
	}
}

type nameMatcher struct{}

func (nameMatcher) Match(d, h *relational.Record) bool {
	return d.Value(0) == h.Value(0)
}

func TestJoinerBlackBoxFallback(t *testing.T) {
	tk := tokenize.New()
	locals := []*relational.Record{rec(0, "A"), rec(1, "B"), rec(2, "A")}
	j := NewJoiner(locals, tk, nameMatcher{})
	if got := j.Matches(rec(9, "A")); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Matches = %v", got)
	}
}

// BenchmarkJoinerJaccardProbe times one probe. "whole-record" uses the
// records' token caches; "on-columns" projects both sides, as the crawl
// engine's matchers do, so nothing is cached.
func BenchmarkJoinerJaccardProbe(b *testing.B) {
	tk := tokenize.New()
	rng := stats.NewRNG(3)
	zipf := stats.NewZipf(rng, 1.0, 3000)
	locals := make([]*relational.Record, 10000)
	for i := range locals {
		vals := make([]string, 2)
		for c := range vals {
			for j := 0; j < 3; j++ {
				vals[c] += fmt.Sprintf("w%d ", zipf.Draw())
			}
		}
		locals[i] = &relational.Record{ID: i, Values: vals}
	}
	for _, bc := range []struct {
		name string
		m    Matcher
	}{
		{"whole-record", NewJaccard(tk, 0.9)},
		{"on-columns", NewJaccardOn(tk, 0.9, []int{0, 1}, []int{0, 1})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			j := NewJoiner(locals, tk, bc.m)
			probe := locals[42].Clone()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j.Matches(probe)
			}
		})
	}
}
