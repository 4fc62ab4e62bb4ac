// Package trace is the session-trace schema (docs/TRACE_SCHEMA.md) and
// its analyses. Each event type is declared here exactly once, as a
// payload struct whose json tags are its wire names and whose field order
// is its wire order: obs.Tracer writes these structs and Parse reads them
// back, so producer and consumer cannot drift apart. On top of the parser
// sit the analyses behind cmd/tracetool: summary statistics,
// round-by-round replay, event filtering, top-query rankings, and
// two-trace divergence diffs.
//
// A golden test in internal/obs pins the bytes of every event type, a
// round-trip test drives all fifteen through the public obs hooks, and a
// schema test diffs KnownTypes against the doc's headings. Unknown event
// types survive parsing as Unknown records (forward compatibility: an old
// tracetool can still summarize a newer trace), and a torn final line —
// the normal tail of a crash-interrupted session — returns the events
// before it alongside the error.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Event types, the `type` field of every trace line. docs/TRACE_SCHEMA.md
// documents each with a field table and a sample line; keep the two in
// sync when adding one (TestKnownTypesMatchSchemaDoc checks).
const (
	EventQuery      = "query"
	EventRound      = "round"
	EventAlloc      = "alloc"
	EventRetry      = "retry"
	EventRateLimit  = "rate_limit"
	EventCheckpoint = "checkpoint"
	EventPhase      = "phase"
	EventFault      = "fault"
	EventBreaker    = "breaker"
	EventRequeue    = "requeue"
	EventForfeit    = "forfeit"
	// EventDeadlineForfeit accompanies a forfeit caused by the crawl
	// deadline: the generic forfeit event is still emitted for the same
	// query, this one carries the cause attribution.
	EventDeadlineForfeit = "deadline_forfeit"
	// EventHealth traces an interface health-score movement or (with
	// probe=true) a recovery-probe allocation of a federated crawl.
	EventHealth    = "health"
	EventWalAppend = "wal_append"
	EventRecovered = "recovered"
)

// schema lists every event type in documented order with a constructor
// for its payload.
var schema = [...]struct {
	typ     string
	payload func() any
}{
	{EventQuery, func() any { return new(Query) }},
	{EventRound, func() any { return new(Round) }},
	{EventAlloc, func() any { return new(Alloc) }},
	{EventRetry, func() any { return new(Retry) }},
	{EventRateLimit, func() any { return new(RateLimit) }},
	{EventCheckpoint, func() any { return new(Checkpoint) }},
	{EventPhase, func() any { return new(Phase) }},
	{EventFault, func() any { return new(Fault) }},
	{EventBreaker, func() any { return new(Breaker) }},
	{EventRequeue, func() any { return new(Requeue) }},
	{EventForfeit, func() any { return new(Forfeit) }},
	{EventDeadlineForfeit, func() any { return new(DeadlineForfeit) }},
	{EventHealth, func() any { return new(Health) }},
	{EventWalAppend, func() any { return new(WalAppend) }},
	{EventRecovered, func() any { return new(Recovered) }},
}

// Meta is the envelope every trace line opens with, in this order.
type Meta struct {
	Seq  uint64 `json:"seq"`  // per-session ordinal, dense from 0
	TMs  int64  `json:"t_ms"` // Unix milliseconds at emit
	Type string `json:"type"` // event type tag
}

// Payloads, one per event type. They follow the envelope on the wire.

// Query is one issued (and absorbed) query; the hiddenserver emits it
// per served search with zero benefit fields. Iface is empty, and
// omitted, on single-interface traces.
type Query struct {
	Query      string  `json:"query"`
	EstBenefit float64 `json:"est_benefit"`
	ResultSize int     `json:"result_size"`
	NewCovered int     `json:"new_covered"`
	CumCovered int     `json:"cum_covered"`
	Solid      bool    `json:"solid"`
	Iface      string  `json:"iface,omitempty"`
}

// Round is one selection-round dispatch.
type Round struct {
	Size       int `json:"size"`
	BudgetLeft int `json:"budget_left"` // -1 = unlimited
}

// Alloc is one federated budget allocation: which interface won the
// round and under what top estimated benefit.
type Alloc struct {
	Iface      string  `json:"iface"`
	EstBenefit float64 `json:"est_benefit"`
	BudgetLeft int     `json:"budget_left"`
}

// Retry is one backoff re-attempt. Err is omitted when the cause is nil.
type Retry struct {
	Query   string `json:"query"`
	Attempt int    `json:"attempt"`
	WaitMs  int64  `json:"wait_ms"`
	Err     string `json:"err,omitempty"`
}

// RateLimit is one client-side token-bucket denial.
type RateLimit struct {
	Query  string  `json:"query"`
	Tokens float64 `json:"tokens"`
}

// Checkpoint is one checkpoint write.
type Checkpoint struct {
	Path    string `json:"path"`
	Covered int    `json:"covered"`
	Queries int    `json:"queries"`
}

// Phase is one completed lifecycle phase.
type Phase struct {
	Phase string `json:"phase"`
	DurMs int64  `json:"dur_ms"`
}

// Fault is one injected fault.
type Fault struct {
	Query   string `json:"query"`
	Class   string `json:"class"`
	Attempt int    `json:"attempt"`
}

// Breaker is one circuit-breaker transition.
type Breaker struct {
	From     string `json:"from"`
	To       string `json:"to"`
	Failures int    `json:"failures"`
}

// Requeue is one failed selection pushed back into the pool.
type Requeue struct {
	Query   string `json:"query"`
	Attempt int    `json:"attempt"`
	Err     string `json:"err,omitempty"`
}

// Forfeit is one selection given up after its attempt cap; Attempts is
// the total dispatch count it burned.
type Forfeit struct {
	Query    string `json:"query"`
	Attempts int    `json:"attempt"`
	Err      string `json:"err,omitempty"`
}

// DeadlineForfeit is the cause attribution accompanying a forfeit the
// crawl deadline caused (the generic Forfeit event for the same query is
// also present in the trace).
type DeadlineForfeit struct {
	Query   string `json:"query"`
	Attempt int    `json:"attempt"`
}

// Health is one interface health-score movement (score in [0,1]), or a
// recovery-probe round when Probe is set.
type Health struct {
	Iface string  `json:"iface"`
	Score float64 `json:"score"`
	Probe bool    `json:"probe,omitempty"`
}

// WalAppend is one record appended to the write-ahead journal.
type WalAppend struct {
	Kind   string `json:"kind"`
	WalSeq uint64 `json:"wal_seq"`
	Bytes  int    `json:"bytes"`
}

// Recovered is one crash recovery: how much state came back from the
// snapshot + journal, and whether a torn tail record was discarded.
type Recovered struct {
	Path    string `json:"path"`
	Records int    `json:"records"`
	Covered int    `json:"covered"`
	Queries int    `json:"queries"`
	WalSeq  uint64 `json:"wal_seq"`
	Torn    bool   `json:"torn"`
}

// Event is one parsed trace line: the envelope, the original line (for
// lossless filtering), and the typed payload — a pointer to one of the
// payload structs above, or nil for an event type this parser does not
// know (Unknown reports that case).
type Event struct {
	Meta
	Raw  string
	Data any
}

// Unknown reports whether the event's type is outside the documented
// schema (the payload is then nil and only the envelope is usable).
func (e *Event) Unknown() bool { return e.Data == nil }

// KnownTypes returns the documented event types in schema order — the
// exact set docs/TRACE_SCHEMA.md has a section for.
func KnownTypes() []string {
	types := make([]string, len(schema))
	for i, s := range schema {
		types[i] = s.typ
	}
	return types
}

// newPayload returns a fresh payload for a known event type, nil for an
// unknown one.
func newPayload(typ string) any {
	for _, s := range schema {
		if s.typ == typ {
			return s.payload()
		}
	}
	return nil
}

// Parse decodes a JSONL trace: the envelope of every line, then the same
// line into a fresh payload of its type. On a malformed line it returns
// the events parsed so far together with a line-numbered error — the torn
// tail of a crash-interrupted session is data, not a reason to drop the
// session.
func Parse(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		e := Event{Raw: line}
		err := json.Unmarshal([]byte(line), &e.Meta)
		if err == nil {
			if e.Data = newPayload(e.Type); e.Data != nil {
				err = json.Unmarshal([]byte(line), e.Data)
			}
		}
		if err != nil {
			return events, fmt.Errorf("line %d: %w", lineNo, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return events, fmt.Errorf("line %d: %w", lineNo+1, err)
	}
	return events, nil
}

// Canonical renders the event without its timestamp: two runs of the
// same seeded crawl differ only in t_ms (and phase durations), so diff
// compares canonical forms. Phase events canonicalize without dur_ms
// for the same reason.
func (e *Event) Canonical() string {
	var b strings.Builder
	b.WriteString(e.Type)
	switch d := e.Data.(type) {
	case *Query:
		fmt.Fprintf(&b, " q=%q est=%s k=%d new=%d cum=%d solid=%t",
			d.Query, ftoa(d.EstBenefit), d.ResultSize, d.NewCovered, d.CumCovered, d.Solid)
		if d.Iface != "" {
			fmt.Fprintf(&b, " iface=%s", d.Iface)
		}
	case *Round:
		fmt.Fprintf(&b, " size=%d budget_left=%d", d.Size, d.BudgetLeft)
	case *Alloc:
		fmt.Fprintf(&b, " iface=%s est=%s budget_left=%d", d.Iface, ftoa(d.EstBenefit), d.BudgetLeft)
	case *Retry:
		fmt.Fprintf(&b, " q=%q attempt=%d wait_ms=%d err=%q", d.Query, d.Attempt, d.WaitMs, d.Err)
	case *RateLimit:
		fmt.Fprintf(&b, " q=%q tokens=%s", d.Query, ftoa(d.Tokens))
	case *Checkpoint:
		fmt.Fprintf(&b, " path=%q covered=%d queries=%d", d.Path, d.Covered, d.Queries)
	case *Phase:
		fmt.Fprintf(&b, " phase=%s", d.Phase)
	case *Fault:
		fmt.Fprintf(&b, " q=%q class=%s attempt=%d", d.Query, d.Class, d.Attempt)
	case *Breaker:
		fmt.Fprintf(&b, " from=%s to=%s failures=%d", d.From, d.To, d.Failures)
	case *Requeue:
		fmt.Fprintf(&b, " q=%q attempt=%d err=%q", d.Query, d.Attempt, d.Err)
	case *Forfeit:
		fmt.Fprintf(&b, " q=%q attempts=%d err=%q", d.Query, d.Attempts, d.Err)
	case *DeadlineForfeit:
		fmt.Fprintf(&b, " q=%q attempt=%d", d.Query, d.Attempt)
	case *Health:
		fmt.Fprintf(&b, " iface=%s score=%s probe=%t", d.Iface, ftoa(d.Score), d.Probe)
	case *WalAppend:
		fmt.Fprintf(&b, " kind=%s wal_seq=%d bytes=%d", d.Kind, d.WalSeq, d.Bytes)
	case *Recovered:
		fmt.Fprintf(&b, " path=%q records=%d covered=%d queries=%d wal_seq=%d torn=%t",
			d.Path, d.Records, d.Covered, d.Queries, d.WalSeq, d.Torn)
	default:
		fmt.Fprintf(&b, " (unknown)")
	}
	return b.String()
}

// ftoa renders a float compactly and losslessly.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sortStrings is a tiny local alias so analyze.go reads cleanly.
func sortStrings(s []string) { sort.Strings(s) }
