package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"smartcrawl/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// emitOneOfEach drives one event of every type through the public Obs
// hooks (never the tracer's unexported emitters) with deterministic
// clocks, so the golden bytes pin the schema exactly as production code
// produces it.
func emitOneOfEach() *bytes.Buffer {
	clock := fakeClock(5 * time.Millisecond)
	var buf bytes.Buffer
	tr := NewTracer(&buf).WithClock(clock)
	o := New().WithClock(clock)
	o.SetTracer(tr)

	stop := o.Phase("pool_generate")
	stop()
	o.Round(2, 48)
	o.Retry("thai noodle", 1, 200*time.Millisecond, errors.New("http 500"))
	o.RateLimitDenied("thai noodle", 0.5)
	o.Query("thai noodle", 3.5, 50, 3, 3, false)
	o.Checkpoint("run.ckpt", 3, 1)
	o.FaultInjected("rare dish", "timeout", 1)
	o.BreakerTransition("closed", "open", 5)
	o.Requeued("rare dish", 1, errors.New("injected timeout"))
	o.Forfeited("rare dish", 3, errors.New("injected timeout"))

	// The federated, resilience and durability types, the tagged and
	// server-side query shapes, both health shapes, nil causes (err
	// omitted), and strings that need JSON escaping.
	o.Alloc("acm", 3.25, 47)
	o.QueryIface("acm", "caf\u00e9 <&>", 1.25, 10, 2, 5, true)
	o.SearchServed("thai noodle", 50, true)
	o.DeadlineForfeited("rare dish", 3)
	o.Health("acm", 0.75, false)
	o.Health("acm", 0.5, true)
	o.Retry("rare dish", 2, 0, nil)
	o.Requeued("rare dish", 2, nil)
	o.Forfeited("rare dish", 4, nil)
	o.WalAppend("step", 7, 64)
	o.Recovered("C:\\runs\\\"q\"\tcrawl.wal", 12, 17, 2, 9, true)
	return &buf
}

// TestGoldenTrace pins the JSONL wire format byte-for-byte: field order
// (struct declaration order), number formatting, one event per line.
// Regenerate with `go test ./internal/obs -run TestGoldenTrace -update`
// after an intentional schema change.
func TestGoldenTrace(t *testing.T) {
	got := emitOneOfEach().Bytes()
	golden := filepath.Join("testdata", "trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace bytes diverge from golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTraceRoundTrip checks every emitted line is independently parseable
// by encoding/json and survives trace.Parse with fields intact.
func TestTraceRoundTrip(t *testing.T) {
	buf := emitOneOfEach()

	// Each line must unmarshal on its own.
	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
	}

	events, err := trace.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []string{trace.EventPhase, trace.EventRound, trace.EventRetry, trace.EventRateLimit,
		trace.EventQuery, trace.EventCheckpoint, trace.EventFault, trace.EventBreaker,
		trace.EventRequeue, trace.EventForfeit, trace.EventAlloc, trace.EventQuery, trace.EventQuery,
		trace.EventDeadlineForfeit, trace.EventHealth, trace.EventHealth, trace.EventRetry,
		trace.EventRequeue, trace.EventForfeit, trace.EventWalAppend, trace.EventRecovered}
	if len(events) != len(wantTypes) {
		t.Fatalf("got %d events, want %d", len(events), len(wantTypes))
	}
	for i, e := range events {
		if e.Type != wantTypes[i] {
			t.Errorf("event %d type = %q, want %q", i, e.Type, wantTypes[i])
		}
		if e.Seq != uint64(i) {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, i)
		}
	}
	want := map[int]any{
		2:  &trace.Retry{Query: "thai noodle", Attempt: 1, WaitMs: 200, Err: "http 500"},
		4:  &trace.Query{Query: "thai noodle", EstBenefit: 3.5, ResultSize: 50, NewCovered: 3, CumCovered: 3},
		6:  &trace.Fault{Query: "rare dish", Class: "timeout", Attempt: 1},
		7:  &trace.Breaker{From: "closed", To: "open", Failures: 5},
		9:  &trace.Forfeit{Query: "rare dish", Attempts: 3, Err: "injected timeout"},
		11: &trace.Query{Query: "caf\u00e9 <&>", EstBenefit: 1.25, ResultSize: 10, NewCovered: 2, CumCovered: 5, Solid: true, Iface: "acm"},
		15: &trace.Health{Iface: "acm", Score: 0.5, Probe: true},
		18: &trace.Forfeit{Query: "rare dish", Attempts: 4},
		20: &trace.Recovered{Path: "C:\\runs\\\"q\"\tcrawl.wal", Records: 12, Covered: 17, Queries: 2, WalSeq: 9, Torn: true},
	}
	for i, w := range want {
		if !reflect.DeepEqual(events[i].Data, w) {
			t.Errorf("event %d payload = %+v, want %+v", i, events[i].Data, w)
		}
	}
}

// failAfter fails every write once n bytes have been accepted.
type failAfter struct {
	n       int
	wrote   int
	refused int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.wrote+len(p) > f.n {
		f.refused++
		return 0, errors.New("disk full")
	}
	f.wrote += len(p)
	return len(p), nil
}

// TestTracerStickyError checks a write failure mutes the tracer instead
// of failing the crawl: the first error is retained, later events are
// dropped without further writes.
func TestTracerStickyError(t *testing.T) {
	w := &failAfter{n: 60} // room for roughly one line
	tr := NewTracer(w).WithClock(fakeClock(time.Millisecond))
	o := New()
	o.SetTracer(tr)

	o.Round(1, 10) // fits
	for i := 0; i < 5; i++ {
		o.Checkpoint("x.ckpt", 100, 50) // first one fails, rest dropped
	}
	if tr.Err() == nil {
		t.Fatal("write failure not retained")
	}
	if w.refused != 1 {
		t.Fatalf("writer refused %d times, want 1 (sticky error must stop writes)", w.refused)
	}
	if err := tr.Flush(); err == nil {
		t.Fatal("Flush must surface the sticky error")
	}
	// Metrics keep working after the tracer dies.
	if got := o.Checkpoints.Value(); got != 5 {
		t.Fatalf("Checkpoints = %d, want 5", got)
	}
}
