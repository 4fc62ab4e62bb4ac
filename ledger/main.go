// Command ledger is the smartcrawl benchmark: it builds one seeded
// workload, crawls it in a closed loop through a public surface (the
// in-process crawler, the hiddenserver HTTP API, or a crawld job), checks
// every output against the seed's oracle, and prints one JSON result line
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). BENCHMARK.json at the repository root declares the metrics
// and workloads; README.md in this directory maps layers to end-to-end
// metrics.
//
// Usage, from the repository root:
//
//	bash ledger/run.sh --workload wide-local --seed 1 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many times a run builds its workload; setup_s is the
// median, and the last build is the one measured.
const setupReps = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 30, "how long the measured loop runs")
		traced  = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
		record  = flag.String("record-oracle", "", "write the oracle of the recorded seeds to this path and exit")
	)
	flag.Parse()
	if *record != "" {
		if err := recordOracle(*record); err != nil {
			fatal(err)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *traced))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	m := machineRecord(w)
	if max(m.LoadGoroutines, m.LoadConns) > runtime.NumCPU() {
		fatal(fmt.Errorf("workload %s needs %d load goroutines and %d connections, machine has %d CPUs",
			w.name, m.LoadGoroutines, m.LoadConns, runtime.NumCPU()))
	}
	work, err := os.MkdirTemp(".", ".ledger-work-")
	if err != nil {
		fatal(err)
	}
	res, err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, work)
	if rmErr := os.RemoveAll(work); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	mb, _ := json.Marshal(map[string]any{"machine": m, "crawls": res.crawls})
	fmt.Println(string(mb))
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ledger:", err)
	os.Exit(1)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract asks for.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// crawls is how many crawls the reported timings are taken over.
	crawls int
}

// machine identifies where a result was measured.
type machine struct {
	CPU            string `json:"cpu"`
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	Commit         string `json:"commit"`
	LoadGoroutines int    `json:"load_goroutines"`
	LoadConns      int    `json:"load_conns"`
}

// machineRecord also counts the load generator: the goroutines that send
// requests to the system under test, and the connections they hold.
func machineRecord(w *workload) machine {
	m := machine{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
	switch w.surface {
	case surfaceLocal:
		// The closed-loop caller of Run; it opens no connection.
		m.LoadGoroutines = 1
	case surfaceHTTP:
		// Each crawl worker issues its own searches, on a connection of
		// its own (the client's transport allows no more).
		m.LoadGoroutines, m.LoadConns = w.workers, w.workers
	case surfaceCrawld:
		// One job client, one request at a time; the job's workers run
		// inside crawld.
		m.LoadGoroutines, m.LoadConns = 1, 1
	}
	if w.scrapeHz > 0 {
		// The open-loop scraper, on a connection of its own.
		m.LoadGoroutines++
		m.LoadConns++
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// commit names the source tree: the git HEAD when the checkout is a
// repository, else "tree:" and a hash of its Go sources and module files.
func commit() string {
	if head, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !ok {
			return ref
		}
		if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
			return strings.TrimSpace(string(id))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if name := d.Name(); d.Type().IsRegular() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			buf, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(buf))
			h.Write(buf)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
