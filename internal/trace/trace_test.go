package trace_test

import (
	"bytes"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"smartcrawl/internal/obs"
	"smartcrawl/internal/trace"
)

// fakeClock advances a fixed step per call for byte-stable traces.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(3600, 0).UTC()
	return func() time.Time { t = t.Add(step); return t }
}

// emitAllTypes drives every documented event type through the public obs
// hooks — the producer side of the schema — and returns the trace bytes.
func emitAllTypes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	o := obs.New().WithClock(fakeClock(5 * time.Millisecond))
	tr := obs.NewTracer(&buf).WithClock(fakeClock(time.Millisecond))
	o.SetTracer(tr)

	done := o.Phase("crawl")
	o.Recovered("crawl.wal", 12, 17, 2, 9, true)
	o.Round(2, 95)
	o.Alloc("acm", 3.25, 90)
	o.Query("deep web crawling", 2.5, 40, 12, 12, false)
	o.QueryIface("acm", "query optimization", 1.5, 10, 5, 17, true)
	o.Retry("deep web crawling", 1, 10*time.Millisecond, errors.New("http 504"))
	o.RateLimitDenied("deep web crawling", 1.5)
	o.FaultInjected("deep web crawling", "http_500", 1)
	o.BreakerTransition("closed", "open", 3)
	o.Requeued("query optimization", 1, errors.New("breaker open"))
	o.Forfeited("query optimization", 3, errors.New("breaker open"))
	o.DeadlineForfeited("query optimization", 3)
	o.Health("acm", 0.8, true)
	o.WalAppend("query", 7, 64)
	o.Checkpoint("crawl.ckpt", 17, 2)
	done()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTripAllTypes parses a trace carrying every documented event
// type: nothing may come back Unknown, and the typed payloads must carry
// the hook arguments through unchanged.
func TestRoundTripAllTypes(t *testing.T) {
	events, err := trace.Parse(bytes.NewReader(emitAllTypes(t)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range events {
		e := &events[i]
		if e.Unknown() {
			t.Errorf("event %d (%s) parsed as unknown", i, e.Type)
		}
		if e.Seq != uint64(i) {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
		if e.Raw == "" {
			t.Errorf("event %d lost its raw line", i)
		}
		seen[e.Type] = true
	}
	for _, typ := range trace.KnownTypes() {
		if !seen[typ] {
			t.Errorf("emitAllTypes produced no %s event", typ)
		}
	}

	// Spot-check that the typed payloads carry the hook arguments.
	if d, ok := events[0].Data.(*trace.Recovered); !ok || d.Records != 12 || d.WalSeq != 9 || !d.Torn {
		t.Errorf("recovered payload = %+v", events[0].Data)
	}
	if d, ok := events[3].Data.(*trace.Query); !ok || d.Query != "deep web crawling" ||
		d.EstBenefit != 2.5 || d.NewCovered != 12 || d.Iface != "" {
		t.Errorf("query payload = %+v", events[3].Data)
	}
	if d, ok := events[4].Data.(*trace.Query); !ok || d.Iface != "acm" || !d.Solid || d.CumCovered != 17 {
		t.Errorf("tagged query payload = %+v", events[4].Data)
	}
	if d, ok := events[10].Data.(*trace.Forfeit); !ok || d.Attempts != 3 || d.Err != "breaker open" {
		t.Errorf("forfeit payload = %+v", events[10].Data)
	}
	if d, ok := events[11].Data.(*trace.DeadlineForfeit); !ok || d.Query != "query optimization" || d.Attempt != 3 {
		t.Errorf("deadline_forfeit payload = %+v", events[11].Data)
	}
	if d, ok := events[12].Data.(*trace.Health); !ok || d.Iface != "acm" || d.Score != 0.8 || !d.Probe {
		t.Errorf("health payload = %+v", events[12].Data)
	}
}

// TestKnownTypesMatchSchemaDoc diffs KnownTypes against the `## \`type\“
// headings of docs/TRACE_SCHEMA.md, so the doc, the tracer, and this
// parser cannot drift apart silently.
func TestKnownTypesMatchSchemaDoc(t *testing.T) {
	doc, err := os.ReadFile("../../docs/TRACE_SCHEMA.md")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile("(?m)^## `([a-z_]+)`")
	var documented []string
	for _, m := range re.FindAllStringSubmatch(string(doc), -1) {
		documented = append(documented, m[1])
	}
	if got, want := strings.Join(documented, " "), strings.Join(trace.KnownTypes(), " "); got != want {
		t.Errorf("TRACE_SCHEMA.md headings = [%s], parser KnownTypes = [%s]", got, want)
	}
}

// TestParseTornTail mimics a crash-interrupted session: the events
// before the torn line must come back with the error.
func TestParseTornTail(t *testing.T) {
	full := emitAllTypes(t)
	torn := full[:len(full)-20] // cut mid-line
	events, err := trace.Parse(bytes.NewReader(torn))
	if err == nil {
		t.Fatal("torn trace parsed without error")
	}
	if len(events) == 0 {
		t.Fatal("torn trace yielded no prefix events")
	}
	for i := range events {
		if events[i].Unknown() {
			t.Errorf("prefix event %d unknown", i)
		}
	}
}

// TestUnknownTypeSurvives pins forward compatibility.
func TestUnknownTypeSurvives(t *testing.T) {
	line := `{"seq":0,"t_ms":1,"type":"hologram","query":"x"}` + "\n"
	events, err := trace.Parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || !events[0].Unknown() || events[0].Type != "hologram" {
		t.Fatalf("events = %+v", events)
	}
	if got := events[0].Canonical(); got != "hologram (unknown)" {
		t.Fatalf("canonical = %q", got)
	}
}

// TestCanonicalIgnoresTime pins the property diff depends on: two traces
// of the same crawl differing only in timestamps canonicalize equal.
func TestCanonicalIgnoresTime(t *testing.T) {
	a := `{"seq":3,"t_ms":100,"type":"phase","phase":"crawl","dur_ms":250}`
	b := `{"seq":3,"t_ms":900,"type":"phase","phase":"crawl","dur_ms":999}`
	ea, err := trace.Parse(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := trace.Parse(strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if ea[0].Canonical() != eb[0].Canonical() {
		t.Fatalf("phase canonical depends on time: %q vs %q", ea[0].Canonical(), eb[0].Canonical())
	}
}

// FuzzParseTrace asserts the parser never panics and — when a prefix
// parses cleanly — that re-parsing the raw lines it preserved reproduces
// the same canonical stream (parse/render stability).
func FuzzParseTrace(f *testing.F) {
	f.Add([]byte(`{"seq":0,"t_ms":1,"type":"query","query":"a","est_benefit":1.5,"result_size":3,"new_covered":2,"cum_covered":2,"solid":false}`))
	f.Add([]byte(`{"seq":0,"t_ms":1,"type":"round","size":4,"budget_left":-1}`))
	f.Add([]byte(`{"seq":0,"t_ms":1,"type":"breaker","from":"closed","to":"open","failures":3}`))
	// Another event type's field with the wrong JSON type ("query" is a
	// string on query lines): a round line does not read it, so it parses.
	f.Add([]byte(`{"seq":0,"t_ms":1,"type":"round","size":4,"budget_left":-1,"query":5}`))
	f.Add([]byte("not json\n{}\n"))
	f.Add([]byte(""))
	f.Add([]byte(`{"type":"query"}` + "\n" + `{"type":"zzz"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := trace.Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		var raws strings.Builder
		for i := range events {
			raws.WriteString(events[i].Raw)
			raws.WriteByte('\n')
		}
		again, err := trace.Parse(strings.NewReader(raws.String()))
		if err != nil {
			t.Fatalf("preserved raw lines failed to re-parse: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("re-parse count %d != %d", len(again), len(events))
		}
		for i := range events {
			if events[i].Canonical() != again[i].Canonical() {
				t.Fatalf("event %d canonical drifted: %q vs %q",
					i, events[i].Canonical(), again[i].Canonical())
			}
		}
		// Analyses must tolerate arbitrary parsed input.
		_ = trace.Summarize(events)
		_ = trace.Rounds(events)
		_ = trace.Top(events, trace.ByEstimateError, 5)
		_ = trace.Diff(events, events)
	})
}
