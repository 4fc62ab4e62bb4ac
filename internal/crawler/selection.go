package crawler

// The interned-token selection machinery of Algorithm 4. Setup resolves
// every pool query once to token-ID slices (tokenize.Dict) and record-ID
// posting intersections (index.InvertedIDs), precomputes the per-
// (record, query) sample-match counts in parallel, and from then on the
// selection loop runs on integers alone: remove() is array indexing plus
// integer subtraction — no string hashing, no map probes, no
// countSatisfying recomputation — which is what makes the paper's §6.3
// per-iteration complexity argument hold in practice.

import (
	"sync"

	"smartcrawl/internal/index"
	"smartcrawl/internal/lazyheap"
	"smartcrawl/internal/match"
	"smartcrawl/internal/querypool"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/tokenize"
)

// selMinChunk is the fewest per-worker items worth a setup goroutine of
// its own; below it the parallel phases run sequentially.
const selMinChunk = 256

// selShardMinBatch is the fewest removals worth fanning out to the record
// shards; below it the sequential path is faster and — because shard
// deltas are commutative integer sums — bit-identical anyway. A var, not
// a const, so the shard determinism oracle can force tiny batches through
// the sharded path.
var selShardMinBatch = 512

// idLookup is the inverted-index probe newSelection resolves q(D)
// through: the heap-built index.InvertedIDs, or the block-compressed
// (possibly memory-mapped) index of an opened corpus cache.
type idLookup interface {
	LookupInto(q []uint32, scratch []uint32) []uint32
}

// selection is the live Algorithm-4 selection state: per-query statistics,
// the dense forward index with its aligned sample-match counts, the
// considered set, and the lazy priority queue. It is the only code that
// knows which selection policy runs: the §6.3 lazy queue, or with eager
// set the Appendix B full rescan (same argmax, same tie-breaking).
type selection struct {
	states []*qstate
	heap   *lazyheap.Queue
	eager  bool
	// score is the interface's benefit function.
	score func(*qstate) float64

	// fwd is F(d): the IDs of pool queries record d satisfies, ascending.
	fwd *index.ForwardDense
	// fwdCnt[d][i] is the static sample-match count of (d, fwd[d][i]) —
	// how many sample positions matching d satisfy that query — so
	// removing d subtracts a precomputed integer instead of recomputing
	// countSatisfying. nil without a sample; fwdCnt[d] is nil when no
	// sample record matches d (the common case at small θ).
	fwdCnt [][]int32

	// considered[d] is false once d has been covered or predicted ∈ ΔD.
	considered []bool
	remaining  int

	// Record-shard state for parallel batch removal (see removeBatch):
	// records are partitioned into `shards` contiguous ranges of
	// shardSize; shard workers accumulate per-query deltas privately and
	// a single-writer merge applies them. Allocated lazily on the first
	// batch big enough to shard.
	shards     int
	shardSize  int
	shardState []selShard
}

// selShard is one record shard's private removal scratch.
type selShard struct {
	dFreq   []int32  // per-query freqD decrements of the current batch
	dMatch  []int32  // per-query matchS decrements
	dirty   []uint32 // queries touched this batch (dFreq[q] > 0)
	removed int      // records this shard removed this batch
}

// selectionStats carries the sample-side inputs of newSelection.
type selectionStats struct {
	smp    *sample.Sample
	joiner *match.Joiner
}

// newSelection builds the selection state for the generated pool: resolve
// q(D) for every query, build the forward index, precompute sample-match
// counts, and push initial priorities. The parallel phases (q(D)
// resolution, per-record count precomputation) are pure per-item
// functions over disjoint outputs, so the result is identical for any
// worker count.
func newSelection(env *Env, pool *querypool.Pool, ss selectionStats, workers, shards int, benefitOf func(*qstate) float64) *selection {
	dict := pool.Dict

	// q(D) resolution source: an opened corpus cache replaces the heap
	// index build entirely — postings are read (block-decoded) straight
	// out of the mapped file, so setup memory no longer carries the
	// posting lists. Both indexes intersect the same sorted postings, so
	// the resolved q(D) slices are identical byte for byte.
	var invD idLookup
	if env.Corpus != nil {
		invD = env.Corpus.Inv
	} else {
		invD = index.BuildInvertedIDsObs(env.Local.Records, env.Tokenizer, dict, workers, env.Obs)
	}

	if shards < 1 {
		shards = 1
	}
	sel := &selection{
		states:     make([]*qstate, pool.Len()),
		heap:       lazyheap.NewN(pool.Len()),
		score:      benefitOf,
		fwd:        index.NewForwardDense(env.Local.Len()),
		considered: make([]bool, env.Local.Len()),
		remaining:  env.Local.Len(),
		shards:     shards,
		shardSize:  (env.Local.Len() + shards - 1) / shards,
	}
	for i := range sel.considered {
		sel.considered[i] = true
	}

	// Phase 1: resolve every pool query's q(D) in parallel. States live
	// in one arena so the pool costs one allocation, not one per query.
	arena := make([]qstate, pool.Len())
	parallelChunks(len(pool.Queries), workers, func(lo, hi int) {
		var scratch []uint32
		for _, q := range pool.Queries[lo:hi] {
			scratch = invD.LookupInto(q.IDs, scratch[:0])
			if len(scratch) == 0 {
				continue // cannot cover anything; never issue
			}
			st := &arena[q.ID]
			st.q = q
			st.qD = append([]uint32(nil), scratch...)
			st.freqD = len(st.qD)
			sel.states[q.ID] = st
		}
	})

	// Phase 2: sample-side statics. The sample's records are interned
	// under the same dictionary (sample-only tokens drop out — they can
	// never appear in a pool query), re-IDed to dense positions for the
	// sample inverted index, and joined once against the local records.
	var (
		sampleMatches [][]int32
		sampleSets    [][]uint32
	)
	if ss.smp != nil && ss.smp.Len() > 0 {
		stopSample := env.Obs.Phase("sample_index")
		reIDed := make([]*relational.Record, len(ss.smp.Records))
		for i, r := range ss.smp.Records {
			reIDed[i] = &relational.Record{ID: i, Values: r.Values}
		}
		invS := index.BuildInvertedIDs(reIDed, env.Tokenizer, dict, workers)
		sampleSets = ss.smp.TokenIDSets(env.Tokenizer, dict)
		sampleMatches = make([][]int32, env.Local.Len())
		for pos, r := range ss.smp.Records {
			for _, d := range ss.joiner.Matches(r) {
				sampleMatches[d] = append(sampleMatches[d], int32(pos))
			}
		}
		parallelChunks(len(sel.states), workers, func(lo, hi int) {
			for _, st := range sel.states[lo:hi] {
				if st != nil {
					st.freqS = invS.Count(st.q.IDs)
				}
			}
		})
		stopSample()
	}

	// Phase 3: the forward index. Walking queries in ID order keeps each
	// F(d) ascending, which recompute() relies on for binary search.
	for _, st := range sel.states {
		if st == nil {
			continue
		}
		for _, d := range st.qD {
			sel.fwd.Add(int(d), uint32(st.q.ID))
		}
	}

	// Phase 4: per-(record, query) sample-match counts, in parallel over
	// records, then one sequential accumulation pass for the initial
	// matchS values (identical integers to summing countSatisfying over
	// q(D), just grouped by record instead of by query).
	if sampleMatches != nil {
		sel.fwdCnt = make([][]int32, env.Local.Len())
		parallelChunks(env.Local.Len(), workers, func(lo, hi int) {
			for d := lo; d < hi; d++ {
				positions := sampleMatches[d]
				if len(positions) == 0 {
					continue
				}
				list := sel.fwd.List(d)
				if len(list) == 0 {
					continue
				}
				cnts := make([]int32, len(list))
				for i, qid := range list {
					cnts[i] = int32(countSatisfyingIDs(positions, sampleSets, sel.states[qid].q.IDs))
				}
				sel.fwdCnt[d] = cnts
			}
		})
		for d, cnts := range sel.fwdCnt {
			if cnts == nil {
				continue
			}
			for i, qid := range sel.fwd.List(d) {
				sel.states[qid].matchS += int(cnts[i])
			}
		}
	}

	// Initial priorities, in query-ID order for determinism.
	for _, st := range sel.states {
		if st != nil {
			sel.heap.Push(st.q.ID, benefitOf(st))
		}
	}
	return sel
}

// remove drops d from consideration and invalidates affected queries —
// the per-iteration delta update. Pure integer work: one forward-list
// walk, one subtraction per affected query, one dense dirty-bit set.
func (sel *selection) remove(d int) {
	if !sel.considered[d] {
		return
	}
	sel.considered[d] = false
	sel.remaining--
	list := sel.fwd.Remove(d)
	var cnts []int32
	if sel.fwdCnt != nil {
		cnts = sel.fwdCnt[d]
		sel.fwdCnt[d] = nil
	}
	for i, qid := range list {
		st := sel.states[qid]
		if st == nil || st.issued {
			continue
		}
		st.freqD--
		if cnts != nil {
			st.matchS -= int(cnts[i])
		}
		sel.heap.Invalidate(int(qid))
	}
}

// removeBatch removes a set of record IDs (duplicates and already-removed
// IDs are fine). Small batches run the sequential remove loop; large ones
// fan out across the record shards — each shard worker removes only the
// records of its own contiguous range, accumulating freqD/matchS
// decrements in private per-query delta arrays, and a single-writer merge
// then applies the deltas and invalidates heap entries.
//
// The sharded path is byte-identical to the sequential one at any shard
// count: each record is removed by exactly one owner, the per-query
// deltas are sums of integers (order-independent), issued queries are
// skipped at merge time exactly as remove() skips them, and
// lazyheap.Invalidate is an idempotent dirty bit — so the post-batch
// selection state, and therefore every subsequent pop, is the same.
func (sel *selection) removeBatch(ds []int) {
	sel.removeBatchFunc(len(ds), func(i int) int { return ds[i] })
}

// removeBatchU32 is removeBatch over a []uint32 ID slice (a query's qD).
func (sel *selection) removeBatchU32(ds []uint32) {
	sel.removeBatchFunc(len(ds), func(i int) int { return int(ds[i]) })
}

func (sel *selection) removeBatchFunc(n int, at func(int) int) {
	if sel.shards <= 1 || n < selShardMinBatch {
		for i := 0; i < n; i++ {
			sel.remove(at(i))
		}
		return
	}
	if sel.shardState == nil {
		sel.shardState = make([]selShard, sel.shards)
		for s := range sel.shardState {
			sel.shardState[s].dFreq = make([]int32, len(sel.states))
			sel.shardState[s].dMatch = make([]int32, len(sel.states))
		}
	}
	var wg sync.WaitGroup
	for s := 0; s < sel.shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sh := &sel.shardState[s]
			lo, hi := s*sel.shardSize, (s+1)*sel.shardSize
			for i := 0; i < n; i++ {
				d := at(i)
				if d < lo || d >= hi || !sel.considered[d] {
					continue
				}
				sel.considered[d] = false
				sh.removed++
				list := sel.fwd.Remove(d)
				var cnts []int32
				if sel.fwdCnt != nil {
					cnts = sel.fwdCnt[d]
					sel.fwdCnt[d] = nil
				}
				for j, qid := range list {
					if sh.dFreq[qid] == 0 {
						sh.dirty = append(sh.dirty, qid)
					}
					sh.dFreq[qid]++
					if cnts != nil {
						sh.dMatch[qid] += cnts[j]
					}
				}
			}
		}(s)
	}
	wg.Wait()
	// Single-writer merge, shard-major. Per-shard dirty lists may overlap;
	// the sums commute, so application order cannot matter.
	removed := 0
	for s := range sel.shardState {
		sh := &sel.shardState[s]
		removed += sh.removed
		sh.removed = 0
		for _, qid := range sh.dirty {
			df, dm := sh.dFreq[qid], sh.dMatch[qid]
			sh.dFreq[qid], sh.dMatch[qid] = 0, 0
			st := sel.states[qid]
			if st == nil || st.issued {
				continue
			}
			st.freqD -= int(df)
			st.matchS -= int(dm)
			sel.heap.Invalidate(int(qid))
		}
		sh.dirty = sh.dirty[:0]
	}
	sel.remaining -= removed
}

// recompute refreshes st's live statistics from the considered set — the
// requeue path, where removals during the in-flight window skipped this
// (issued) query. Counts come from the precomputed table via binary
// search of the query's ID in F(d).
func (sel *selection) recompute(st *qstate) {
	st.freqD, st.matchS = 0, 0
	qid := uint32(st.q.ID)
	for _, d := range st.qD {
		if !sel.considered[d] {
			continue
		}
		st.freqD++
		st.matchS += sel.countAt(int(d), qid)
	}
}

// countAt returns the precomputed sample-match count of (d, qid), or 0
// when d has no matching sample positions. F(d) is ascending by
// construction, so the position resolves by binary search.
func (sel *selection) countAt(d int, qid uint32) int {
	if sel.fwdCnt == nil || sel.fwdCnt[d] == nil {
		return 0
	}
	list := sel.fwd.List(d)
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid] < qid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(list) || list[lo] != qid {
		return 0
	}
	return int(sel.fwdCnt[d][lo])
}

// rescore is the lazy queue's revalidation callback: the query's fresh
// benefit, or keep=false once it is issued or covers nothing.
func (sel *selection) rescore(qid int) (float64, bool) {
	st := sel.states[qid]
	if st == nil || st.issued || st.freqD <= 0 {
		return 0, false
	}
	return sel.score(st), true
}

// pop selects the query with the largest benefit and marks it issued.
func (sel *selection) pop() (*qstate, float64, bool) {
	qid, benefit, ok := 0, 0.0, false
	if sel.eager {
		qid, benefit, ok = sel.argmax()
	} else {
		qid, benefit, ok = sel.heap.Pop(sel.rescore)
	}
	if !ok {
		return nil, 0, false
	}
	st := sel.states[qid]
	st.issued = true
	return st, benefit, true
}

// argmax scans every live query and returns the one with the largest
// benefit (ties by smaller query ID), mirroring the lazy queue's selection
// semantics at O(|Q|) per call.
func (sel *selection) argmax() (best int, benefit float64, ok bool) {
	for qid := range sel.states {
		if b, live := sel.rescore(qid); live && (!ok || b > benefit) {
			best, benefit, ok = qid, b, true
		}
	}
	return best, benefit, ok
}

// peek returns the benefit pop would select without removing it. Only the
// federated allocator calls it, and federation rejects eager selection.
func (sel *selection) peek() (float64, bool) {
	_, benefit, ok := sel.heap.Peek(sel.rescore)
	return benefit, ok
}

// retire marks st issued without popping it (resume replay, a recovered
// pending round). Its queue entry is still live, and a clean entry would
// be re-issued without ever being rescored, so it is marked stale for the
// issued filter to drop at the next pop.
func (sel *selection) retire(st *qstate) {
	st.issued = true
	if !sel.eager {
		sel.heap.Invalidate(st.q.ID)
	}
}

// unissue returns an issued query to the pool. A popped entry is pushed
// back at benefit; an unpopped one is still queued — a push would
// duplicate it — so it is invalidated, forcing a rescore instead.
func (sel *selection) unissue(st *qstate, popped bool, benefit float64) {
	st.issued = false
	if sel.eager {
		return
	}
	if popped {
		sel.heap.Push(st.q.ID, benefit)
	} else {
		sel.heap.Invalidate(st.q.ID)
	}
}

// requeue is unissue at st's fresh benefit, for a failed query whose
// statistics were just recomputed. Eager selection rescans anyway, so the
// benefit is computed only when the queue needs it.
func (sel *selection) requeue(st *qstate, popped bool) {
	benefit := 0.0
	if popped && !sel.eager {
		benefit = sel.score(st)
	}
	sel.unissue(st, popped, benefit)
}

// reprioritize rescores every queued entry — for when the benefit
// function itself changed (online calibration), which lazy invalidation
// cannot express.
func (sel *selection) reprioritize() { sel.heap.Reprioritize(sel.rescore) }

// countSatisfyingIDs counts the sample positions (matching some local
// record) whose interned token sets contain every query keyword ID — the
// integer kernel equivalent of the string countSatisfying reference in
// kernel_test.go. positions index into sets; both sets[pos] and q are
// sorted ascending.
func countSatisfyingIDs(positions []int32, sets [][]uint32, q []uint32) int {
	n := 0
	for _, pos := range positions {
		if tokenize.ContainsAllSorted(sets[pos], q) {
			n++
		}
	}
	return n
}

// parallelChunks runs fn over [0,n) split into contiguous per-worker
// chunks. fn must write only to per-index outputs (no shared appends), so
// results are identical for any worker count; small inputs run inline.
func parallelChunks(n, workers int, fn func(lo, hi int)) {
	if workers > n/selMinChunk {
		workers = n / selMinChunk
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
