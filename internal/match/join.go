package match

import (
	"math"
	"slices"
	"sort"

	"smartcrawl/internal/relational"
	"smartcrawl/internal/tokenize"
)

// Joiner answers "which local records does this hidden record match?" — the
// per-iteration similarity join of §6.1 that turns a query result q(H)_k
// into the covered set q(D)_cover. It is built once over the local database
// and probed with each returned hidden record (at most k per query), so
// probe cost dominates; three strategies are chosen by matcher type:
//
//   - Exact: hash join on the normalized-document key, O(1) per probe;
//   - Jaccard: prefix-filtered token join (the classic All-Pairs filter:
//     two sets with Jaccard ≥ τ must share a token within each other's
//     first |x| − ⌈τ·|x|⌉ + 1 tokens under a global token order), then
//     threshold verification. Tokens are interned as ranks in that order,
//     so a probe tokenizes only the hidden record and verifies by merging
//     two sorted rank slices;
//   - any other Matcher: full scan (correct for arbitrary black boxes).
//
// The local side is a snapshot: exact keys and token sets are computed by
// NewJoiner, so a Joiner over records whose values later change is stale —
// build a new one. A record without tokens in its match projection matches
// nothing.
//
// Probes reuse internal scratch (dedup stamps, the probe's rank buffer), so
// a Joiner must not be probed from multiple goroutines concurrently; build
// one Joiner per goroutine instead.
type Joiner struct {
	recs    []*relational.Record
	tk      *tokenize.Tokenizer
	matcher Matcher

	// exact join state
	exactKeys map[string][]int

	// jaccard prefix-filter state. Ranks order the local vocabulary by
	// ascending document frequency, ties by token text (rarer first).
	threshold float64
	rank      map[string]int32
	recRanks  [][]int32 // each local record's distinct tokens as sorted ranks
	prefixInv [][]int32 // rank → local records with that token in their prefix

	// column projections taken from the matcher (nil = all columns)
	dCols, hCols []int

	// verify holds BlockedAnd verification predicates applied to every
	// index candidate.
	verify []Matcher

	// probe-side scratch, reused across sequential probes: candidate dedup
	// within one probe (probeSeen), across one batch (batchSeen — separate
	// because CoveredBy nests Matches), and the probe's ranks.
	probeSeen  denseSeen
	batchSeen  denseSeen
	probeRanks []int32
}

// denseSeen is a generation-stamped membership set over dense indices:
// reset is O(1), add is an array store — replacing the map[int]struct{}
// the probe paths used to allocate per call.
type denseSeen struct {
	stamp []int
	gen   int
}

func (s *denseSeen) reset(n int) {
	if len(s.stamp) < n {
		s.stamp = make([]int, n)
		s.gen = 0
	}
	s.gen++
}

// add inserts i and reports whether it was newly added.
func (s *denseSeen) add(i int) bool {
	if s.stamp[i] == s.gen {
		return false
	}
	s.stamp[i] = s.gen
	return true
}

// NewJoiner builds a join index over the local records for the given
// matcher. BlockedAnd matchers are indexed by their Block component, with
// Verify predicates applied to every candidate.
func NewJoiner(recs []*relational.Record, tk *tokenize.Tokenizer, m Matcher) *Joiner {
	j := &Joiner{recs: recs, tk: tk, matcher: m}
	if ba, ok := m.(*BlockedAnd); ok {
		j.verify = ba.Verify
		m = ba.Block
	}
	switch mm := m.(type) {
	case *Exact:
		j.dCols, j.hCols = mm.DCols, mm.HCols
		j.exactKeys = make(map[string][]int, len(recs))
		for i, r := range recs {
			if k := KeyOn(r, tk, j.dCols); k != "" {
				j.exactKeys[k] = append(j.exactKeys[k], i)
			}
		}
	case *Jaccard:
		j.dCols, j.hCols = mm.DCols, mm.HCols
		j.threshold = mm.Threshold
		j.buildPrefixIndex()
	}
	return j
}

func (j *Joiner) buildPrefixIndex() {
	toks := make([][]string, len(j.recs))
	df := make(map[string]int)
	for i, r := range j.recs {
		toks[i] = projTokens(r, j.tk, j.dCols)
		for _, w := range toks[i] {
			df[w]++
		}
	}
	vocab := make([]string, 0, len(df))
	for w := range df {
		vocab = append(vocab, w)
	}
	sort.Slice(vocab, func(a, b int) bool {
		if df[vocab[a]] != df[vocab[b]] {
			return df[vocab[a]] < df[vocab[b]]
		}
		return vocab[a] < vocab[b]
	})
	j.rank = make(map[string]int32, len(vocab))
	for i, w := range vocab {
		j.rank[w] = int32(i)
	}
	j.recRanks = make([][]int32, len(j.recs))
	j.prefixInv = make([][]int32, len(vocab))
	for i, ts := range toks {
		rs := make([]int32, len(ts))
		for k, w := range ts {
			rs[k] = j.rank[w]
		}
		slices.Sort(rs)
		j.recRanks[i] = rs
		for _, r := range rs[:j.prefixLen(len(rs))] {
			j.prefixInv[r] = append(j.prefixInv[r], int32(i))
		}
	}
}

// prefixLen is the All-Pairs prefix length |x| − ⌈τ·|x|⌉ + 1 of a set of n
// tokens, clamped to [1, n]; 0 for an empty set.
func (j *Joiner) prefixLen(n int) int {
	if n == 0 {
		return 0
	}
	return min(max(n-int(math.Ceil(j.threshold*float64(n)))+1, 1), n)
}

// Matches returns the indices (into the record slice passed to NewJoiner)
// of all local records matching hidden record h, in ascending order.
func (j *Joiner) Matches(h *relational.Record) []int {
	var cands []int
	switch {
	case j.exactKeys != nil:
		cands = j.exactKeys[KeyOn(h, j.tk, j.hCols)]
	case j.rank != nil:
		cands = j.jaccardMatches(h)
	default:
		for i, d := range j.recs {
			if j.matcher.Match(d, h) {
				cands = append(cands, i)
			}
		}
		return cands // full scan already applied the complete matcher
	}
	if len(j.verify) == 0 || len(cands) == 0 {
		return cands
	}
	out := make([]int, 0, len(cands))
	for _, i := range cands {
		ok := true
		for _, v := range j.verify {
			if !v.Match(j.recs[i], h) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// jaccardMatches probes the prefix index with h's ranks. Tokens outside
// the local vocabulary have no rank and sort after every known one, so the
// walk covers the first min(p, known) ranks; they still count in |h|.
func (j *Joiner) jaccardMatches(h *relational.Record) []int {
	probe := projTokens(h, j.tk, j.hCols)
	hs := j.probeRanks[:0]
	for _, w := range probe {
		if r, ok := j.rank[w]; ok {
			hs = append(hs, r)
		}
	}
	slices.Sort(hs)
	j.probeRanks = hs
	j.probeSeen.reset(len(j.recs))
	var out []int
	for _, r := range hs[:min(j.prefixLen(len(probe)), len(hs))] {
		for _, i := range j.prefixInv[r] {
			if !j.probeSeen.add(int(i)) {
				continue
			}
			ds := j.recRanks[i]
			inter := intersectSorted(ds, hs)
			if float64(inter)/float64(len(ds)+len(probe)-inter) >= j.threshold {
				out = append(out, int(i))
			}
		}
	}
	sort.Ints(out)
	return out
}

// intersectSorted counts the common elements of two ascending, distinct
// rank slices.
func intersectSorted(a, b []int32) int {
	n := 0
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			n++
			a, b = a[1:], b[1:]
		}
	}
	return n
}

// CoveredBy returns the distinct local-record indices matched by any record
// in the batch (a query result), ascending — q(D)_cover for one issued
// query.
func (j *Joiner) CoveredBy(batch []*relational.Record) []int {
	j.batchSeen.reset(len(j.recs))
	var out []int
	for _, h := range batch {
		for _, i := range j.Matches(h) {
			if !j.batchSeen.add(i) {
				continue
			}
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
