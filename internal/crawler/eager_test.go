package crawler_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/dataset"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/relational"
	"smartcrawl/internal/sample"
	"smartcrawl/internal/stats"
)

// cancelAfter cancels the crawl's context from inside its n-th search, so
// the dispatcher drains the rest of that round as undispatched queries.
type cancelAfter struct {
	deepweb.Searcher
	n      int
	cancel context.CancelFunc

	mu    sync.Mutex
	calls int
}

func (c *cancelAfter) Search(q deepweb.Query) ([]*relational.Record, error) {
	c.mu.Lock()
	c.calls++
	if c.calls == c.n {
		c.cancel()
	}
	c.mu.Unlock()
	return c.Searcher.Search(q)
}

// TestEagerMatchesLazy: the Appendix B full-rescan selection and the §6.3
// lazy queue are two implementations of one argmax with one tie-break, so
// a crawl must issue the same queries and cover the same records under
// either. The scenarios cover every path where selection state is handed
// back: sequential and batched rounds, failed queries requeued through a
// faulty interface, and a shutdown that returns part of a round to the
// pool undispatched.
func TestEagerMatchesLazy(t *testing.T) {
	type scenario struct {
		seed     uint64
		batch    int
		faults   bool
		cancelAt int // cancel the context inside this search; 0 never
	}
	var scenarios []scenario
	for _, seed := range []uint64{1, 2, 3} {
		for _, batch := range []int{1, 4} {
			scenarios = append(scenarios, scenario{seed: seed, batch: batch})
		}
	}
	scenarios = append(scenarios,
		scenario{seed: 4, batch: 4, faults: true},
		scenario{seed: 5, batch: 4, cancelAt: 10},
	)

	run := func(sc scenario, eager bool) (*crawler.Result, int) {
		env, in, _ := dblpEnv(t, dataset.DBLPConfig{
			CorpusSize: 8000, HiddenSize: 2000, LocalSize: 400, Seed: sc.seed,
		}, 50, nil)
		cfg := crawler.SmartConfig{
			Sample:         sample.Bernoulli(in.Hidden, 0.03, stats.NewRNG(sc.seed+100)),
			BatchSize:      sc.batch,
			Concurrency:    1,
			EagerSelection: eager,
		}
		if sc.faults {
			env.Searcher = deepweb.NewFaulty(env.Searcher, deepweb.FaultProfile{
				Seed: sc.seed, Timeout: 0.1, Unavailable: 0.1, Truncate: 0.05,
			})
			cfg.MaxAttempts = 2
		}
		var counter *cancelAfter
		if sc.cancelAt > 0 {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			counter = &cancelAfter{Searcher: env.Searcher, n: sc.cancelAt, cancel: cancel}
			env.Searcher = counter
			cfg.Context = ctx
		}
		c, err := crawler.NewSmart(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(48)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		if counter != nil {
			calls = counter.calls
		}
		return res, calls
	}

	for _, sc := range scenarios {
		name := fmt.Sprintf("seed=%d/batch=%d/faults=%v/cancelAt=%d", sc.seed, sc.batch, sc.faults, sc.cancelAt)
		t.Run(name, func(t *testing.T) {
			lazy, lazyCalls := run(sc, false)
			eager, eagerCalls := run(sc, true)
			if len(lazy.Steps) == 0 {
				t.Fatal("lazy run issued no queries")
			}
			if got, want := queryLog(eager), queryLog(lazy); got != want {
				t.Fatalf("issued-query log diverged\n--- lazy ---\n%s\n--- eager ---\n%s", want, got)
			}
			if !slices.Equal(eager.Covered, lazy.Covered) || eager.CoveredCount != lazy.CoveredCount {
				t.Fatalf("coverage diverged: eager %d, lazy %d", eager.CoveredCount, lazy.CoveredCount)
			}
			if (eager.Resilience == nil) != (lazy.Resilience == nil) ||
				(lazy.Resilience != nil && eager.Resilience.String() != lazy.Resilience.String()) {
				t.Fatalf("resilience reports diverged: eager %v, lazy %v", eager.Resilience, lazy.Resilience)
			}
			if sc.faults && lazy.Resilience.Requeued == 0 {
				t.Fatalf("fault scenario never requeued a query: %s", lazy.Resilience)
			}
			if sc.cancelAt > 0 {
				// The cancelling search still completes; the round's
				// remaining queries never reach the searcher.
				if lazyCalls != sc.cancelAt || eagerCalls != sc.cancelAt {
					t.Fatalf("searches after cancel: lazy %d, eager %d, want %d", lazyCalls, eagerCalls, sc.cancelAt)
				}
				if sc.cancelAt%sc.batch == 0 || lazy.QueriesIssued != sc.cancelAt {
					t.Fatalf("cancel scenario left no undispatched queries (issued %d)", lazy.QueriesIssued)
				}
			}
		})
	}
}
