package index

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"smartcrawl/internal/relational"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

// figure1Local reproduces the local database of the paper's Figure 1(a).
func figure1Local() []*relational.Record {
	names := []string{
		"Thai Noodle House",
		"Saigon Noodle House",
		"Thai House",
		"Thai Noodle House Express", // d4-like: shares thai/noodle/house
	}
	recs := make([]*relational.Record, len(names))
	for i, n := range names {
		recs[i] = &relational.Record{ID: i, Values: []string{n}}
	}
	return recs
}

func TestLookupConjunctive(t *testing.T) {
	tk := tokenize.New()
	inv := BuildInverted(figure1Local(), tk)

	cases := []struct {
		q    []string
		want []int
	}{
		{[]string{"house"}, []int{0, 1, 2, 3}},
		{[]string{"noodle", "house"}, []int{0, 1, 3}},
		{[]string{"thai"}, []int{0, 2, 3}},
		{[]string{"thai", "noodle", "house"}, []int{0, 3}},
		{[]string{"saigon"}, []int{1}},
		{[]string{"missing"}, nil},
		{[]string{"thai", "missing"}, nil},
		{nil, nil},
	}
	for _, c := range cases {
		if got := inv.Lookup(c.q); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Lookup(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := inv.Count(c.q); got != len(c.want) {
			t.Errorf("Count(%v) = %d, want %d", c.q, got, len(c.want))
		}
	}
}

func TestDocFreqAndVocabulary(t *testing.T) {
	tk := tokenize.New()
	inv := BuildInverted(figure1Local(), tk)
	if inv.Size() != 4 {
		t.Fatalf("Size = %d", inv.Size())
	}
	if got := inv.DocFreq("house"); got != 4 {
		t.Fatalf("DocFreq(house) = %d", got)
	}
	if got := inv.DocFreq("nope"); got != 0 {
		t.Fatalf("DocFreq(nope) = %d", got)
	}
	// vocabulary: thai, noodle, house, saigon, express
	if got := len(inv.postings); got != 5 {
		t.Fatalf("vocabulary size = %d", got)
	}
}

func TestPostingsSortedUnique(t *testing.T) {
	tk := tokenize.New()
	// Records given out of ID order with duplicate tokens inside one doc.
	recs := []*relational.Record{
		{ID: 5, Values: []string{"alpha beta alpha"}},
		{ID: 1, Values: []string{"alpha"}},
		{ID: 3, Values: []string{"beta alpha"}},
	}
	inv := BuildInverted(recs, tk)
	p := inv.Postings("alpha")
	if !reflect.DeepEqual(p, []int{1, 3, 5}) {
		t.Fatalf("postings = %v", p)
	}
}

func TestIntersectGalloping(t *testing.T) {
	// Force the galloping path: tiny a, big b.
	a := []int{3, 500, 999}
	b := make([]int, 1000)
	for i := range b {
		b[i] = i
	}
	if got := intersect(a, b); !reflect.DeepEqual(got, a) {
		t.Fatalf("intersect = %v", got)
	}
	if got := intersect(b, a); !reflect.DeepEqual(got, a) {
		t.Fatalf("intersect reversed = %v", got)
	}
}

// Property: Lookup agrees with a brute-force scan over random corpora.
func TestLookupMatchesBruteForce(t *testing.T) {
	tk := tokenize.New()
	rng := stats.NewRNG(99)
	vocab := []string{"aa", "bb", "cc", "dd", "ee", "ff"}

	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		recs := make([]*relational.Record, n)
		for i := 0; i < n; i++ {
			k := 1 + rng.Intn(4)
			doc := ""
			for j := 0; j < k; j++ {
				doc += vocab[rng.Intn(len(vocab))] + " "
			}
			recs[i] = &relational.Record{ID: i, Values: []string{doc}}
		}
		inv := BuildInverted(recs, tk)

		qlen := 1 + rng.Intn(3)
		q := make([]string, qlen)
		for j := range q {
			q[j] = vocab[rng.Intn(len(vocab))]
		}

		var want []int
		for _, r := range recs {
			set := tk.Set(r.Document())
			ok := true
			for _, w := range q {
				if _, in := set[w]; !in {
					ok = false
					break
				}
			}
			if ok {
				want = append(want, r.ID)
			}
		}
		sort.Ints(want)
		got := inv.Lookup(q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Lookup(%v) = %v, want %v", trial, q, got, want)
		}
	}
}

// Property: intersect is commutative and its result is sorted and a subset
// of both inputs.
func TestIntersectProperties(t *testing.T) {
	f := func(aRaw, bRaw []uint8) bool {
		a := sortedUnique(aRaw)
		b := sortedUnique(bRaw)
		ab := intersect(a, b)
		ba := intersect(b, a)
		if !reflect.DeepEqual(ab, ba) {
			return false
		}
		inA := toSet(a)
		inB := toSet(b)
		for i, v := range ab {
			if i > 0 && ab[i-1] >= v {
				return false
			}
			if !inA[v] || !inB[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sortedUnique(raw []uint8) []int {
	m := map[int]bool{}
	for _, v := range raw {
		m[int(v)] = true
	}
	out := make([]int, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func toSet(s []int) map[int]bool {
	m := make(map[int]bool, len(s))
	for _, v := range s {
		m[v] = true
	}
	return m
}

func BenchmarkLookup(b *testing.B) {
	tk := tokenize.New()
	rng := stats.NewRNG(1)
	zipf := stats.NewZipf(rng, 1.0, 2000)
	recs := make([]*relational.Record, 20000)
	for i := range recs {
		doc := ""
		for j := 0; j < 8; j++ {
			doc += fmt.Sprintf("w%d ", zipf.Draw())
		}
		recs[i] = &relational.Record{ID: i, Values: []string{doc}}
	}
	inv := BuildInverted(recs, tk)
	q := []string{"w0", "w3"}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inv.Lookup(q)
	}
}
