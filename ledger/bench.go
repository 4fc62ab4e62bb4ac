package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// surface is the crawl entry point a workload drives.
type surface interface {
	// crawl runs one crawl (or job) to completion and returns the digest
	// of its output and the cost of the crawl itself, without the work
	// of fetching and digesting its output.
	crawl() (digest, cost, error)
	// traced runs one crawl with the per-layer decorators attached, and
	// the same crawl untraced for the trace overhead, and returns the
	// layer samples; the traced output is checked like crawl's.
	traced() (layers, digest, error)
	// scraper is the surface's /metrics scraper, nil when it has none.
	scraper() *scraper
	close()
}

func openSurface(u *universe, dir string) (surface, error) {
	switch u.w.surface {
	case surfaceLocal:
		return &localSurface{u: u}, nil
	case surfaceHTTP:
		return openHTTP(u)
	case surfaceCrawld:
		return openCrawld(u, dir)
	}
	return nil, fmt.Errorf("unknown surface %q", u.w.surface)
}

// bench sets the workload up setupReps times, then crawls the last setup
// in a closed loop for d and summarizes the run.
func bench(w *workload, seed uint64, d time.Duration, trace bool, work string) (*result, error) {
	refs, err := recordedReferences()
	if err != nil {
		return nil, err
	}
	var (
		u        *universe
		s        surface
		setupS   []float64
		refFails int
	)
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if u, err = newUniverse(w, seed); err != nil {
			return nil, err
		}
		if s, err = openSurface(u, dir); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer s.close()
	if err := u.applyReference(refs); err != nil {
		fmt.Fprintln(os.Stderr, "ledger: oracle:", err)
		refFails++
	}

	// One unmeasured crawl lets caches fill and lazy set-up finish.
	if _, _, err := s.crawl(); err != nil {
		return nil, fmt.Errorf("warm-up crawl: %w", err)
	}

	l := &loop{u: u, s: s}
	sc := s.scraper()
	if sc != nil {
		sc.start()
	}
	var runErr error
	if trace {
		runErr = l.runTraced(d)
	} else {
		l.run(d)
	}
	var scr scrapeStats
	if sc != nil {
		scr = sc.stop()
	}
	if runErr != nil {
		return nil, runErr
	}

	// The reference check against oracle.json counts as one attempt.
	res := &result{
		Attempted: l.attempted + scr.attempted + 1,
		Failed:    l.failed + scr.failed + refFails,
		Metrics:   map[string]metric{},
		crawls:    len(l.wall) + len(l.trace),
	}
	res.Correct = res.Failed == 0
	if trace {
		l.layerMetrics(res.Metrics, scr)
	} else {
		l.endToEnd(res.Metrics, median(setupS), res)
	}
	return res, nil
}

// loop is the closed-loop crawl client and the samples it collects.
type loop struct {
	u *universe
	s surface

	attempted, failed int
	elapsed           float64
	wall, cpu, alloc  []float64 // per crawl: s, CPU s, bytes
	covered           []float64
	heapPeak          float64

	// trace holds each traced crawl's layers.
	trace []layers
}

// checked records one crawl's outcome against the oracle.
func (l *loop) checked(d digest, err error) bool {
	l.attempted++
	if err == nil {
		err = l.u.check(d)
	}
	if err != nil {
		l.failed++
		fmt.Fprintln(os.Stderr, "ledger: crawl:", err)
		return false
	}
	return true
}

// run is the untraced closed loop: crawl back to back until d elapses.
func (l *loop) run(d time.Duration) {
	hp := startHeapPeak()
	start := time.Now()
	for time.Since(start) < d {
		dg, c, err := l.s.crawl()
		if l.checked(dg, err) {
			l.wall = append(l.wall, c.wall)
			l.cpu = append(l.cpu, c.cpu)
			l.alloc = append(l.alloc, c.alloc)
			l.covered = append(l.covered, float64(dg.Covered))
		}
	}
	l.elapsed = time.Since(start).Seconds()
	l.heapPeak = hp.Stop()
}

// maxTracedFailures is how many failed traced crawls a run tolerates past
// its duration while it still has no successful one.
const maxTracedFailures = 3

// runTraced runs traced crawls (each with its untraced twin and its
// replays) until d elapses, and past it until one crawl succeeds or
// maxTracedFailures have failed.
func (l *loop) runTraced(d time.Duration) error {
	start := time.Now()
	for time.Since(start) < d || (len(l.trace) == 0 && l.failed < maxTracedFailures) {
		r0 := readRT()
		ly, dg, err := l.s.traced()
		r1 := readRT()
		if l.checked(dg, err) {
			ly["runtime.gc_cycles"] = r1.gcCycles - r0.gcCycles
			ly["runtime.gc_cpu_s"] = r1.gcCPU - r0.gcCPU
			l.trace = append(l.trace, ly)
		}
	}
	if len(l.trace) == 0 {
		return fmt.Errorf("no traced crawl succeeded")
	}
	return nil
}

// endToEnd fills the untraced metrics.
func (l *loop) endToEnd(m map[string]metric, setup float64, res *result) {
	m["setup_s"] = metric{setup, "s"}
	m["crawl_p50_s"] = metric{median(l.wall), "s"}
	m["crawl_p90_s"] = metric{quantile(l.wall, 0.9), "s"}
	m["crawls_per_s"] = metric{float64(len(l.wall)) / l.elapsed, "1/s"}
	m["crawl_cpu_s"] = metric{median(l.cpu), "s"}
	m["crawl_alloc_mb"] = metric{median(l.alloc) / 1e6, "MB"}
	m["heap_peak_mb"] = metric{l.heapPeak / 1e6, "MB"}
	m["covered"] = metric{median(l.covered), "records"}
	m["ok_frac"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "ratio"}
}
