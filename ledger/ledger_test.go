package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the program must honour.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationMatchesProgram keeps BENCHMARK.json and the program's
// workload and layer tables in step.
func TestDeclarationMatchesProgram(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, program has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(d.PerLayer) != len(layerUnits) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, program has %d", len(d.PerLayer), len(layerUnits))
	}
	for i, m := range d.PerLayer {
		if m.Name != layerUnits[i].name || m.Unit != layerUnits[i].unit {
			t.Errorf("per-layer metric %d: declared %s (%s), program %s (%s)",
				i, m.Name, m.Unit, layerUnits[i].name, layerUnits[i].unit)
		}
	}
}

// TestLoadFitsTwoCPUs keeps every workload's load generator within the
// two CPUs of the smallest machine the ledger is run on.
func TestLoadFitsTwoCPUs(t *testing.T) {
	for _, w := range workloads {
		m := machineRecord(w)
		if m.LoadGoroutines > 2 || m.LoadConns > 2 {
			t.Errorf("%s: %d load goroutines, %d connections", w.name, m.LoadGoroutines, m.LoadConns)
		}
	}
}

// failingSurface is a program whose every crawl fails.
type failingSurface struct{ calls int }

var errBroken = errors.New("broken")

func (f *failingSurface) crawl() (digest, cost, error) {
	f.calls++
	return digest{}, cost{}, errBroken
}

func (f *failingSurface) traced() (layers, digest, error) {
	f.calls++
	return nil, digest{}, errBroken
}

func (f *failingSurface) scraper() *scraper { return nil }
func (f *failingSurface) close()            {}

// TestTracedRunEndsWhenEveryCrawlFails: a traced run whose crawls all fail
// stops after a bounded number of attempts and reports it.
func TestTracedRunEndsWhenEveryCrawlFails(t *testing.T) {
	f := &failingSurface{}
	l := &loop{s: f}
	if err := l.runTraced(0); err == nil {
		t.Fatal("runTraced succeeded with no successful crawl")
	}
	if f.calls != maxTracedFailures || l.failed != maxTracedFailures {
		t.Errorf("%d crawls, %d failed; want %d", f.calls, l.failed, maxTracedFailures)
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that each declared metric is emitted with its unit, that the
// oracle passes, and that the traced layer times fit inside the crawl.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := readDeclared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := bench(w, 1, 500*time.Millisecond, trace, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			if trace {
				checkStageSum(t, w.name, res.Metrics)
			}
		}
	}
}

// checkStageSum fails when the attributed layer times exceed the crawl
// they were attributed from by more than noise: a replay would then be
// doing different work from Run.
func checkStageSum(t *testing.T, name string, m map[string]metric) {
	t.Helper()
	run, attributed := m["crawler.run_s"].Value, m["crawler.attributed_s"].Value
	if attributed > 1.15*run+0.010 {
		t.Errorf("%s: attributed layer time %.4fs exceeds crawler.run_s %.4fs", name, attributed, run)
	}
	if m["crawler.unattributed_s"].Value != run-attributed {
		t.Errorf("%s: crawler.unattributed_s is not run_s - attributed_s", name)
	}
}
