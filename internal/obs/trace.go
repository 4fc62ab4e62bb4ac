package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
)

// Tracer emits structured session events as JSON Lines: one event per
// line, every line independently parseable. A line is the envelope (seq,
// t_ms, type) followed by the fields of the event's payload struct from
// package trace, which declares the schema. A trace is the replayable
// story of a crawl session — which query was selected with what
// estimated benefit, what it returned, what it newly covered, plus
// retry/backoff, rate-limit, checkpoint, phase-timing, and the
// resilience events (fault, breaker, requeue, forfeit) of a degraded
// crawl. Every event type and field is documented in docs/TRACE_SCHEMA.md.
//
// Tracer serializes writes with a mutex and is safe for concurrent use
// by the dispatcher's workers. Write errors are sticky: the first one is
// retained (Err) and later events are dropped, so a full disk degrades a
// crawl to untraced instead of failing it.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	now func() time.Time
	seq uint64
	err error
}

// NewTracer traces onto w. Callers own w's lifecycle; wrap files in a
// bufio.Writer and use Flush before closing.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, now: time.Now}
}

// WithClock replaces the tracer's time source (tests inject a fake clock
// for byte-stable golden traces) and returns the tracer.
func (t *Tracer) WithClock(now func() time.Time) *Tracer {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
	return t
}

// Err returns the first write or encoding error, if any.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Flush flushes the underlying writer when it is buffered (implements
// Flush() error, as bufio.Writer does).
func (t *Tracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	if f, ok := t.w.(interface{ Flush() error }); ok {
		t.err = f.Flush()
	}
	return t.err
}

// emit writes one event: the envelope, whose sequence number and
// timestamp are assigned under the lock so lines are totally ordered even
// when workers race, then the payload's fields in declaration order. The
// payload is one of the trace package's event structs; each has at least
// one field that is never omitted.
func (t *Tracer) emit(typ string, payload any) {
	p, err := json.Marshal(payload)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err != nil {
		t.err = err
		return
	}
	b := append(make([]byte, 0, len(p)+64), `{"seq":`...)
	b = strconv.AppendUint(b, t.seq, 10)
	b = append(b, `,"t_ms":`...)
	b = strconv.AppendInt(b, t.now().UnixMilli(), 10)
	b = append(b, `,"type":"`...)
	b = append(b, typ...)
	b = append(b, `",`...)
	b = append(b, p[1:]...)
	b = append(b, '\n')
	t.seq++
	if _, err := t.w.Write(b); err != nil {
		t.err = err
	}
}
