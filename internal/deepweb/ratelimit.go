package deepweb

import (
	"context"
	"errors"
	"sync"
	"time"

	"smartcrawl/internal/obs"
	"smartcrawl/internal/relational"
)

// ErrRateLimited is returned by Limited.Search when the token bucket has
// no token for the request — the client-side equivalent of an HTTP 429.
// It is transient by definition: Retrying's default classifier re-attempts
// it, and the bucket refills while the backoff waits.
var ErrRateLimited = errors.New("deepweb: rate limited")

// Bucket is a thread-safe token-bucket rate limiter: capacity tokens,
// refilled continuously at a per-second rate; Allow never blocks. It is
// the one limiter of the codebase. Client-side, Limited puts it in front
// of a Searcher so a concurrent crawl pipeline never exceeds the polite
// request rate in the first place — fanning a batch over N workers
// multiplies instantaneous load by N, and real APIs ban clients for
// that. Server-side, httpapi.Server answers 429 with it (the remote
// quota), and crawld paces each tenant's job submissions with it.
type Bucket struct {
	mu       sync.Mutex
	tokens   float64
	capacity float64
	perSec   float64
	last     time.Time
	now      func() time.Time
}

// NewBucket creates a bucket holding capacity tokens, refilled at
// refillPerSec tokens/second. It starts full.
func NewBucket(capacity int, refillPerSec float64) *Bucket {
	b := &Bucket{
		tokens:   float64(capacity),
		capacity: float64(capacity),
		perSec:   refillPerSec,
		now:      time.Now,
	}
	b.last = b.now()
	return b
}

// WithClock replaces the bucket's time source (tests inject a fake clock
// to step refills deterministically) and returns the bucket.
func (b *Bucket) WithClock(now func() time.Time) *Bucket {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now = now
	b.last = now()
	return b
}

// refillLocked advances the token count to the current time. Callers hold mu.
func (b *Bucket) refillLocked() {
	now := b.now()
	b.tokens += now.Sub(b.last).Seconds() * b.perSec
	b.last = now
	if b.tokens > b.capacity {
		b.tokens = b.capacity
	}
}

// Allow consumes one token if available, without blocking.
func (b *Bucket) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens returns the current token count (after refill) — observability
// for tests and stats endpoints.
func (b *Bucket) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	return b.tokens
}

// Limited wraps a Searcher with a client-side token bucket. A request with
// no token fails fast with ErrRateLimited instead of reaching the backend;
// compose with Retrying (outside) to wait out the refill with backoff, and
// with Counting to decide whether throttled attempts should be charged
// (outside: free; inside: charged, like real quota meters). Safe for
// concurrent use when the wrapped Searcher is.
type Limited struct {
	S Searcher
	B *Bucket
	// Obs, when non-nil, records every denial (with the bucket's token
	// level) into the observability sink — the rate-limit-pressure signal
	// for tuning worker counts against polite request rates.
	Obs *obs.Obs
}

// Search implements Searcher.
func (l *Limited) Search(q Query) ([]*relational.Record, error) {
	return l.SearchCtx(nil, q)
}

// SearchCtx is Search with a request context forwarded past the bucket.
func (l *Limited) SearchCtx(ctx context.Context, q Query) ([]*relational.Record, error) {
	if !l.B.Allow() {
		if l.Obs != nil {
			l.Obs.RateLimitDenied(q.Key(), l.B.Tokens())
		}
		return nil, ErrRateLimited
	}
	return SearchWith(ctx, l.S, q)
}

// K implements Searcher.
func (l *Limited) K() int { return l.S.K() }

// Delayed wraps a Searcher, sleeping Delay before forwarding every call —
// injected network round-trip latency for wall-clock experiments and the
// parallel-crawl benchmarks. Safe for concurrent use when the wrapped
// Searcher is; concurrent callers sleep independently, which is exactly
// the overlap the dispatcher exists to exploit.
type Delayed struct {
	S     Searcher
	Delay time.Duration
}

// Search implements Searcher.
func (d *Delayed) Search(q Query) ([]*relational.Record, error) {
	return d.SearchCtx(nil, q)
}

// SearchCtx is Search whose injected delay respects the context: a
// deadline or cancellation that fires mid-sleep ends the call with the
// context's error, exactly as a real network round-trip would.
func (d *Delayed) SearchCtx(ctx context.Context, q Query) ([]*relational.Record, error) {
	if d.Delay > 0 {
		if ctx == nil {
			time.Sleep(d.Delay)
		} else {
			t := time.NewTimer(d.Delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}
	}
	return SearchWith(ctx, d.S, q)
}

// K implements Searcher.
func (d *Delayed) K() int { return d.S.K() }
