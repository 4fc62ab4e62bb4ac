// Package index implements the indexing machinery of the paper's Section 6.3
// and Figure 3: an inverted index over record documents for computing query
// frequencies |q(D)| by posting-list intersection (Figure 3(a)), and a
// forward index mapping each record to the pool queries it satisfies
// (Figure 3(b)), which drives the delta-update mechanism of the selection
// loop.
package index

import (
	"sort"

	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

// Inverted maps each keyword to the sorted list of record IDs whose
// documents contain it. Posting lists are sorted ascending, enabling linear
// merge intersection.
type Inverted struct {
	postings map[string][]int
	size     int // number of indexed records
}

// BuildInverted indexes the given records with tokenizer tk.
func BuildInverted(recs []*relational.Record, tk *tokenize.Tokenizer) *Inverted {
	inv := &Inverted{postings: make(map[string][]int), size: len(recs)}
	for _, r := range recs {
		for _, w := range r.Tokens(tk) {
			inv.postings[w] = append(inv.postings[w], r.ID)
		}
	}
	sortPostings(inv.postings)
	return inv
}

// sortPostings sorts every posting list ascending. Record iteration order
// follows the slice, and Tokens is deduplicated, so each list is already
// sorted and unique if record IDs arrive in increasing order; records may
// arrive in arbitrary ID order, so sort defensively.
func sortPostings(postings map[string][]int) {
	for w, p := range postings {
		sort.Ints(p)
		postings[w] = p
	}
}

// Size returns the number of indexed records.
func (inv *Inverted) Size() int { return inv.size }

// Postings returns the posting list for keyword w (shared slice; callers
// must not mutate). A missing keyword yields nil.
func (inv *Inverted) Postings(w string) []int { return inv.postings[w] }

// DocFreq returns |I(w)|, the number of records containing w.
func (inv *Inverted) DocFreq(w string) int { return len(inv.postings[w]) }

// Lookup returns the sorted IDs of records satisfying the conjunctive
// keyword query q — the paper's q(D) computed as ∩_{w∈q} I(w). An empty
// query matches nothing (issuing an empty query is meaningless), and any
// unknown keyword short-circuits to nil.
func (inv *Inverted) Lookup(q []string) []int {
	if len(q) == 0 {
		return nil
	}
	// Intersect starting from the rarest keyword: the intersection can
	// never exceed the smallest posting list, and seeding with it keeps
	// the merge cheap.
	lists := make([][]int, len(q))
	for i, w := range q {
		p := inv.postings[w]
		if len(p) == 0 {
			return nil
		}
		lists[i] = p
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	result := lists[0]
	for _, p := range lists[1:] {
		result = intersect(result, p)
		if len(result) == 0 {
			return nil
		}
	}
	// result may alias lists[0]; copy so callers can retain it safely.
	out := make([]int, len(result))
	copy(out, result)
	return out
}

// Count returns |q(D)| without materializing the ID list when possible.
func (inv *Inverted) Count(q []string) int { return len(inv.Lookup(q)) }

// intersect merges two sorted int slices. When the lengths are lopsided it
// switches to galloping (binary) search over the longer list.
func intersect(a, b []int) []int {
	if len(a) > len(b) {
		a, b = b, a
	}
	var out []int
	if len(b) > 16*len(a) {
		// Gallop: binary-search each element of a in b.
		for _, v := range a {
			i := sort.SearchInts(b, v)
			if i < len(b) && b[i] == v {
				out = append(out, v)
			}
		}
		return out
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
