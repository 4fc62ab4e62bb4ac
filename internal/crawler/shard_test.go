package crawler

// The shard determinism oracle: record-sharded batch removal and the
// memory-mapped corpus index are pure wall-clock knobs — coverage,
// per-query statistics, and the issued-query log must be byte-identical
// to the sequential in-memory path at any shard count, worker count, or
// index backing. These tests force even tiny batches through the sharded
// path (selShardMinBatch = 1) so the shard machinery is exercised at test
// scale, not just at the production threshold.

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"smartcrawl/internal/dataset"
	"smartcrawl/internal/estimator"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/index"
	"smartcrawl/internal/match"
	"smartcrawl/internal/querypool"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
	"smartcrawl/internal/tokenize"
)

func forceSharding(t *testing.T) {
	t.Helper()
	old := selShardMinBatch
	selShardMinBatch = 1
	t.Cleanup(func() { selShardMinBatch = old })
}

// scanDictFor mirrors querypool's corpus scan: BuildDict over the sorted
// vocabulary, the same dictionary a corpus cache stores.
func scanDictFor(recs []*relational.Record, tk *tokenize.Tokenizer) *tokenize.Dict {
	seen := map[string]struct{}{}
	for _, r := range recs {
		for _, w := range r.Tokens(tk) {
			seen[w] = struct{}{}
		}
	}
	vocab := make([]string, 0, len(seen))
	for w := range seen {
		vocab = append(vocab, w)
	}
	sort.Strings(vocab)
	return tokenize.BuildDict(vocab)
}

// TestRemoveBatchShardedMatchesSequential drives identical removal
// batches through a sequential selection and a sharded one and compares
// the complete post-batch state: considered set, remaining count,
// forward-index entries, every query's freqD/matchS, and the full drain
// order of both heaps.
func TestRemoveBatchShardedMatchesSequential(t *testing.T) {
	forceSharding(t)
	in, err := dataset.GenerateDBLP(dataset.DBLPConfig{
		CorpusSize: 6000, HiddenSize: 1500, LocalSize: 800, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	tk := tokenize.New()
	smp := sample.Bernoulli(in.Hidden, 0.05, stats.NewRNG(17))
	m := match.NewExactOn(tk, in.LocalKey, in.HiddenKey)
	pool := querypool.Generate(in.Local, tk, querypool.Config{MinSupport: 2, MaxQueryLen: 3})
	env := &Env{Local: in.Local, Tokenizer: tk, Matcher: m}
	joiner := match.NewJoiner(in.Local.Records, tk, m)

	build := func(workers, shards int) *selection {
		est := estimator.Biased{}
		benefit := func(st *qstate) float64 {
			return est.Benefit(estimator.Stats{
				FreqD: st.freqD, FreqSample: st.freqS, MatchSample: st.matchS,
				Theta: smp.Theta, K: 100,
			})
		}
		return newSelection(env, pool, selectionStats{smp: smp, joiner: joiner}, workers, shards, benefit)
	}
	seq := build(1, 1)
	shd := build(4, 8)

	// Issue a few queries on both (removeBatch must skip issued queries
	// exactly like remove does), then remove their qD sets plus a strided
	// sweep of raw record IDs.
	issued := 0
	for qid, st := range seq.states {
		if st == nil || len(st.qD) < 4 {
			continue
		}
		seq.states[qid].issued = true
		shd.states[qid].issued = true
		issued++
		if issued == 5 {
			break
		}
	}
	for qid, st := range seq.states {
		if st == nil || st.issued || len(st.qD) < 8 {
			continue
		}
		seq.removeBatchU32(st.qD)
		shd.removeBatchU32(st.qD)
		if qid%3 == 0 {
			var ds []int
			for d := qid % 7; d < in.Local.Len(); d += 13 {
				ds = append(ds, d)
			}
			seq.removeBatch(ds)
			shd.removeBatch(ds)
		}
	}

	if seq.remaining != shd.remaining {
		t.Fatalf("remaining: %d vs %d", seq.remaining, shd.remaining)
	}
	entries := func(f *index.ForwardDense) int {
		n := 0
		for d := range in.Local.Records {
			n += len(f.List(d))
		}
		return n
	}
	if a, b := seq.fwd.Len(), shd.fwd.Len(); a != b {
		t.Fatalf("forward live lists: %d vs %d", a, b)
	}
	if a, b := entries(seq.fwd), entries(shd.fwd); a != b {
		t.Fatalf("forward entries: %d vs %d", a, b)
	}
	for d := range seq.considered {
		if seq.considered[d] != shd.considered[d] {
			t.Fatalf("considered[%d]: %v vs %v", d, seq.considered[d], shd.considered[d])
		}
	}
	for qid, st := range seq.states {
		if st == nil {
			continue
		}
		o := shd.states[qid]
		if st.freqD != o.freqD || st.matchS != o.matchS {
			t.Fatalf("query %d stats: freqD %d/%d matchS %d/%d",
				qid, st.freqD, o.freqD, st.matchS, o.matchS)
		}
	}
	// Drain both heaps; pops must agree exactly (same qid, same benefit).
	rescore := func(sel *selection) func(int) (float64, bool) {
		est := estimator.Biased{}
		return func(qid int) (float64, bool) {
			st := sel.states[qid]
			if st == nil || st.issued || st.freqD <= 0 {
				return 0, false
			}
			return est.Benefit(estimator.Stats{
				FreqD: st.freqD, FreqSample: st.freqS, MatchSample: st.matchS,
				Theta: smp.Theta, K: 100,
			}), true
		}
	}
	rs, ro := rescore(seq), rescore(shd)
	for {
		qa, ba, oka := seq.heap.Pop(rs)
		qb, bb, okb := shd.heap.Pop(ro)
		if oka != okb || qa != qb || ba != bb {
			t.Fatalf("heap drain diverged: (%d,%v,%v) vs (%d,%v,%v)", qa, ba, oka, qb, bb, okb)
		}
		if !oka {
			break
		}
		seq.states[qa].issued = true
		shd.states[qb].issued = true
	}
}

// TestShardedMappedCrawlDeterministic is the end-to-end oracle over the
// new axes: for each seed, every (workers, shards, mapped-vs-in-memory)
// cell must produce the byte-identical issued-query log and coverage of
// the sequential in-memory reference.
func TestShardedMappedCrawlDeterministic(t *testing.T) {
	forceSharding(t)
	dir := t.TempDir()
	for _, seed := range []uint64{1, 2, 3} {
		run := func(workers, shards int, mapped bool) *Result {
			in, err := dataset.GenerateDBLP(dataset.DBLPConfig{
				CorpusSize: 8000, HiddenSize: 2000, LocalSize: 400, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			tk := tokenize.New()
			db := hidden.New(in.Hidden, tk, 50,
				hidden.RankByNumericColumn(in.RankColumn), hidden.ModeConjunctive)
			env := &Env{
				Local: in.Local, Searcher: db, Tokenizer: tk,
				Matcher: match.NewExactOn(tk, in.LocalKey, in.HiddenKey),
			}
			cfg := SmartConfig{
				Sample:      sample.Bernoulli(in.Hidden, 0.03, stats.NewRNG(seed+100)),
				Estimator:   estimator.Biased{},
				BatchSize:   8,
				Concurrency: workers,
				Shards:      shards,
			}
			if mapped {
				dict := scanDictFor(in.Local.Records, tk)
				inv := index.BuildCompressedInvertedIDs(in.Local.Records, tk, dict)
				path := filepath.Join(dir, "oracle.scorp")
				if err := index.WriteCorpus(path, dict, inv); err != nil {
					t.Fatal(err)
				}
				cf, err := index.OpenCorpus(path)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cf.Close() })
				env.Corpus = cf
				cfg.PoolConfig.Dict = cf.Dict
			}
			c, err := NewSmart(env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(48)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		logOf := func(res *Result) string {
			keys := make([]string, len(res.Steps))
			for i, s := range res.Steps {
				keys[i] = s.Query.Key()
			}
			return strings.Join(keys, "\n")
		}
		ref := run(1, 1, false)
		refLog := logOf(ref)
		if len(ref.Steps) == 0 {
			t.Fatalf("seed %d: reference run issued no queries", seed)
		}
		cells := []struct {
			workers, shards int
			mapped          bool
		}{
			{1, 1, true}, // mapped alone
			{4, 1, true},
			{1, 4, false}, // shards alone
			{4, 4, false},
			{16, 4, true}, // everything at once
			{16, 1, false},
		}
		for _, c := range cells {
			got := run(c.workers, c.shards, c.mapped)
			if log := logOf(got); log != refLog {
				t.Fatalf("seed %d workers=%d shards=%d mapped=%v: issued-query log diverged\n--- ref ---\n%s\n--- got ---\n%s",
					seed, c.workers, c.shards, c.mapped, refLog, log)
			}
			if got.CoveredCount != ref.CoveredCount {
				t.Fatalf("seed %d workers=%d shards=%d mapped=%v: coverage %d, want %d",
					seed, c.workers, c.shards, c.mapped, got.CoveredCount, ref.CoveredCount)
			}
		}
	}
}
