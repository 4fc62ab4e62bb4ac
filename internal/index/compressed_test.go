package index

import (
	"fmt"
	"reflect"
	"testing"

	"smartcrawl/internal/relational"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

func TestCompressedSavesSpace(t *testing.T) {
	tk := tokenize.New()
	rng := stats.NewRNG(9)
	zipf := stats.NewZipf(rng, 1.0, 500)
	recs := make([]*relational.Record, 20000)
	for i := range recs {
		doc := ""
		for j := 0; j < 6; j++ {
			doc += fmt.Sprintf("w%03d ", zipf.Draw())
		}
		recs[i] = &relational.Record{ID: i, Values: []string{doc}}
	}
	comp := BuildCompressedInvertedIDs(recs, tk, buildDictFor(recs, tk))
	plainBytes := 0
	plain := BuildInverted(recs, tk)
	for w := range plain.postings {
		plainBytes += 8 * len(plain.postings[w]) // int64 slice storage
	}
	ratio := float64(comp.Bytes()) / float64(plainBytes)
	t.Logf("compressed %d bytes vs plain %d bytes (ratio %.2f)", comp.Bytes(), plainBytes, ratio)
	if ratio > 0.35 {
		t.Fatalf("compression ratio %.2f — d-gap blocks should cut ≥ 65%% on this workload", ratio)
	}
}

func TestCompressedEmptyAndSingleton(t *testing.T) {
	tk := tokenize.New()
	empty := BuildCompressedInvertedIDs(nil, tk, buildDictFor(nil, tk))
	if empty.Lookup([]uint32{0}) != nil || empty.Size() != 0 {
		t.Fatal("empty index")
	}
	recs := []*relational.Record{{ID: 7, Values: []string{"solo token"}}}
	dict := buildDictFor(recs, tk)
	one := BuildCompressedInvertedIDs(recs, tk, dict)
	for _, q := range [][]string{{"solo"}, {"solo", "token"}} {
		ids, ok := dict.Resolve(q)
		if !ok {
			t.Fatalf("Resolve(%v) failed", q)
		}
		if got := one.Lookup(ids); !reflect.DeepEqual(got, []uint32{7}) {
			t.Fatalf("singleton lookup %v = %v", q, got)
		}
	}
}
