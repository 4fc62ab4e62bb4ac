package tokenize

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// refTokens is the original strings.Builder tokenizer, kept as the
// reference Tokens must reproduce: every letter or digit rune lowercased
// with unicode.ToLower and appended, any other rune ending the token.
func refTokens(t *Tokenizer, text string) []string {
	var (
		out []string
		b   strings.Builder
	)
	flush := func() {
		if b.Len() == 0 {
			return
		}
		w := b.String()
		b.Reset()
		if len([]rune(w)) < t.MinTokenLen {
			return
		}
		if _, stop := t.stop[w]; stop {
			return
		}
		if t.Stemmer != nil {
			w = t.Stemmer(w)
		}
		out = append(out, w)
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return out
}

// refDistinct dedups refTokens with a map, keeping first appearances.
func refDistinct(t *Tokenizer, text string) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, w := range refTokens(t, text) {
		if _, ok := seen[w]; ok {
			continue
		}
		seen[w] = struct{}{}
		out = append(out, w)
	}
	return out
}

// FuzzTokens checks the tokenizer's invariants on arbitrary input: no
// panics, all tokens lowercase and non-empty, no stop words, idempotence
// of re-tokenization, and agreement of Tokens and Distinct with the
// reference implementations for the default tokenizer and for a
// MinTokenLen 2 + PorterStem one.
func FuzzTokens(f *testing.F) {
	for _, seed := range []string{
		"", "Thai Noodle House", "a-b_c.d", "ΣΩΔ unicode Ωmega",
		"   spaces\t\ttabs\nnewlines ", "the and of", "123 4.56 7e8",
		strings.Repeat("long ", 100),
		"ÉCOLE Straße İstanbul ΣΊΣΥΦΟΣ",            // Unicode upper case
		"ǅungla ǈudi ǋuka ᾈ",                       // title-case runes
		"bad\xffutf8\xc3(\xe2\x82 ok\xed\xa0\x80x", // invalid UTF-8
		"I a IT is Running RUNS ran caresses",      // short tokens, stemming
		"x y z x y z " + strings.Repeat("w", 3),
		"\uFFFDreplacement\uFFFD char",
	} {
		f.Add(seed)
	}
	tk := New()
	stem := New()
	stem.MinTokenLen = 2
	stem.Stemmer = PorterStem
	f.Fuzz(func(t *testing.T, s string) {
		toks := tk.Tokens(s)
		for _, w := range toks {
			if w == "" {
				t.Fatal("empty token")
			}
			if tk.IsStopWord(w) {
				t.Fatalf("stop word %q leaked", w)
			}
			for _, r := range w {
				// Not !IsUpper: some upper-case runes (ϒ) have no
				// lower-case form, so lowercasing keeps them.
				if unicode.ToLower(r) != r {
					t.Fatalf("unfolded rune in %q", w)
				}
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("separator rune in %q", w)
				}
			}
		}
		again := tk.Tokens(strings.Join(toks, " "))
		if !slices.Equal(again, toks) {
			t.Fatalf("not idempotent: %v vs %v", toks, again)
		}
		for _, tz := range []*Tokenizer{tk, stem} {
			if got, want := tz.Tokens(s), refTokens(tz, s); !slices.Equal(got, want) {
				t.Fatalf("Tokens(%q) = %q, reference %q", s, got, want)
			}
			if got, want := tz.Distinct(s), refDistinct(tz, s); !slices.Equal(got, want) {
				t.Fatalf("Distinct(%q) = %q, reference %q", s, got, want)
			}
		}
	})
}

// FuzzPorterStem checks the stemmer never panics, never empties a word,
// and is idempotent-ish (stemming a stem never grows it).
func FuzzPorterStem(f *testing.F) {
	for _, seed := range []string{
		"", "a", "sses", "caresses", "relational", "yyyy", "bbbb",
		"optimization", "ing", "ed", "ies", "ational",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		w := strings.ToLower(s)
		stem := PorterStem(w)
		if len(w) > 2 && len(stem) == 0 {
			t.Fatalf("stem of %q is empty", w)
		}
		if len(stem) > len(w)+1 {
			t.Fatalf("stem grew: %q → %q", w, stem)
		}
		if len(PorterStem(stem)) > len(stem)+1 {
			t.Fatalf("re-stem grew: %q → %q", stem, PorterStem(stem))
		}
	})
}

// TestDistinctMatchesReference checks Distinct against the map-based
// first-appearance reference on short and long token lists.
func TestDistinctMatchesReference(t *testing.T) {
	tk := New()
	var words []string
	for i := 0; i < 300; i++ {
		words = append(words, fmt.Sprintf("w%d", i%107))
	}
	for _, n := range []int{0, 1, 2, 31, 32, 33, 107, 108, len(words)} {
		text := strings.Join(words[:n], " ")
		if got, want := tk.Distinct(text), refDistinct(tk, text); !slices.Equal(got, want) {
			t.Errorf("n=%d: Distinct = %q, reference %q", n, got, want)
		}
	}
	long := strings.Repeat("Noodle HOUSE thai ", 100) + "café Café"
	if got, want := tk.Distinct(long), refDistinct(tk, long); !slices.Equal(got, want) {
		t.Errorf("Distinct(long) = %q, reference %q", got, want)
	}
}
