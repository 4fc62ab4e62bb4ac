// Command smartcrawl runs a budgeted data-enrichment crawl from the
// command line: local CSV in, enriched CSV out. The hidden database is
// either a local CSV served through the in-process simulator or a remote
// hiddenserver endpoint.
//
// Usage:
//
//	smartcrawl -local mine.csv -hidden yelp.csv -budget 500 -k 50 \
//	           -theta 0.005 -enrich rating -out enriched.csv
//	smartcrawl -local mine.csv -url http://localhost:8080 -budget 500 \
//	           -sample-target 200 -enrich rating -out enriched.csv
//
// Against slow remote interfaces, -workers N overlaps N query round-trips
// per selection round (results are deterministic for any worker count at a
// fixed -batch; see DESIGN.md §5 "Concurrency model").
//
// -faults runs the crawl as a chaos drill over a deterministically
// misbehaving interface, with the resilience stack engaged (-retries,
// -max-attempts requeue/forfeit, -breaker) and a one-line resilience
// report at the end; -trace captures the whole degraded session as JSONL.
//
// -checkpoint makes the crawl resumable across quota windows; adding -wal
// makes it crash-safe: every absorbed query is journaled before the next
// is charged, the journal is compacted into the checkpoint every
// -autosave steps, SIGINT/SIGTERM drains in-flight queries and saves a
// resumable state, and even a SIGKILL loses at most one in-flight record.
// -checkpoint-inspect prints what a checkpoint + journal pair holds
// without crawling. docs/OPERATIONS.md is the operator runbook for all of
// it.
//
// The crawl itself — interface assembly, politeness stack, durability,
// enrichment — lives in internal/engine, shared with the crawld daemon:
// a job submitted to crawld and a smartcrawl invocation with the same
// inputs produce byte-identical outputs.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"smartcrawl"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/durable"
	"smartcrawl/internal/engine"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/profiling"
	"smartcrawl/internal/relational"
)

func main() {
	var (
		localPath  = flag.String("local", "", "local table CSV (required)")
		hiddenPath = flag.String("hidden", "", "hidden table CSV (simulated interface)")
		url        = flag.String("url", "", "hiddenserver base URL (remote interface)")
		interfaces = flag.String("interfaces", "", "federated crawl over several interfaces sharing the budget: specs separated by ';', "+
			"key=value fields by ',' — e.g. \"name=a,hidden=h1.csv,k=10;name=b,url=http://localhost:8081,faults=transient10,breaker=5\"")
		budget      = flag.Int("budget", 100, "query budget b")
		k           = flag.Int("k", 50, "top-k limit (simulated interface)")
		rankCol     = flag.Int("rank-column", -1, "ranking column (simulated interface)")
		theta       = flag.Float64("theta", 0.005, "sampling ratio in [0, 1] (simulated interface); 0 = sample-free")
		sampleTgt   = flag.Int("sample-target", 200, "sample size target (remote interface); 0 = sample-free")
		strategy    = flag.String("strategy", "smart", "smart | simple | online | naive | full")
		fuzzy       = flag.Float64("fuzzy", 0, "Jaccard threshold for fuzzy matching (0 = exact)")
		enrichCols  = flag.String("enrich", "", "comma-separated hidden columns to append (names)")
		outPath     = flag.String("out", "", "output CSV (default: stdout)")
		checkpoint  = flag.String("checkpoint", "", "crawl checkpoint file: resumed if present, written after the run (smart/simple strategies)")
		wal         = flag.String("wal", "", "write-ahead journal file (with -checkpoint): makes the crawl crash-safe — every absorbed query is durable before the next is charged")
		autosave    = flag.Int("autosave", durable.DefaultEvery, "journal→checkpoint compaction cadence in absorbed queries (with -checkpoint); 0 saves only at exit")
		walSync     = flag.String("wal-sync", durable.SyncCompact, "journal fsync policy: always | round | compact (crash durability never needs fsync; this guards power loss)")
		inspect     = flag.Bool("checkpoint-inspect", false, "print what -checkpoint (and -wal) hold, then exit without crawling")
		workers     = flag.Int("workers", 1, "concurrent query workers (smart/simple/online strategies); >1 overlaps round-trips")
		corpusCache = flag.String("corpus-cache", "", "on-disk corpus index for -local: built (streaming, bounded memory) if missing, then memory-mapped — selection runs out-of-core with byte-identical results")
		shards      = flag.Int("shards", 0, "record shards for parallel selection-state removal (with large -local tables); byte-identical results at any value, 0/1 = sequential")
		poolSample  = flag.Int("pool-sample", 0, "mine the query pool over a reservoir sample of N records with exact support recounting against -corpus-cache (0 = mine the full table)")
		batchSize   = flag.Int("batch", 0, "queries selected per round (default: -workers); >1 trades a little coverage for wall-clock")
		seed        = flag.Uint64("seed", 42, "seed")
		tracePath   = flag.String("trace", "", "write a JSONL session trace (query/round/retry/rate-limit/checkpoint/phase events) to this file")
		metrics     = flag.Bool("metrics", false, "print an end-of-run metrics summary to stderr (implied by -trace)")
		rate        = flag.Float64("rate", 0, "client-side polite request rate, queries/sec (0 = unpaced); throttled queries are retried with backoff")
		burst       = flag.Int("burst", 10, "client-side token-bucket burst capacity (with -rate)")
		retries     = flag.Int("retries", 5, "transient-failure retries per query (rate-limit waits, network blips)")
		faults      = flag.String("faults", "", "chaos drill: inject deterministic faults into the search path — a preset ("+
			strings.Join(deepweb.FaultPresetNames(), "|")+") or a key=value spec (e.g. timeout=0.05,truncate=0.1)")
		faultSeed   = flag.Uint64("fault-seed", 1, "seed of the injected fault schedule (with -faults)")
		maxAttempts = flag.Int("max-attempts", 0, "failed queries are re-queued up to N times before being forfeited (0 = fail fast; defaults to 3 with -faults)")
		breakerN    = flag.Int("breaker", -1, "circuit-breaker consecutive-failure threshold; 0 disables (default: 5 with -faults, else off)")
		deadline    = flag.Duration("deadline", 0, "end-to-end wall-clock budget for the crawl: selection stops when it expires, interrupted queries are forfeited with their budget refunded (0 = none)")
		queryTO     = flag.Duration("query-timeout", 0, "per-attempt timeout on each dispatched search (0 = none)")
		retryBudget = flag.Float64("retry-budget", 0, "cap requeues at this ratio of dispatches — a Finagle-style retry token bucket prevents retry storms (0 = uncapped)")
		health      = flag.Bool("health", false, "score each -interfaces member by EWMA success health, scale allocation bids by it, and probe degraded interfaces for recovery")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile  = flag.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")
	)
	flag.Parse()

	// Inspect mode reads the durability files and exits — the only
	// filesystem access it needs is the files being inspected.
	if *inspect {
		if *checkpoint == "" {
			fatal(fmt.Errorf("-checkpoint-inspect requires -checkpoint"))
		}
		inspectCheckpoint(*checkpoint, *wal)
		return
	}

	// Validate every flag before touching the filesystem: a misuse error
	// must not depend on which files happen to exist, and must never
	// surface after state has been opened or mutated.
	if *localPath == "" {
		fatal(fmt.Errorf("-local is required"))
	}
	req := &engine.Request{
		Hidden:       *hiddenPath,
		URL:          *url,
		Interfaces:   *interfaces,
		Budget:       *budget,
		K:            *k,
		RankColumn:   *rankCol,
		Theta:        *theta,
		SampleTarget: *sampleTgt,
		Strategy:     *strategy,
		Fuzzy:        *fuzzy,
		Checkpoint:   *checkpoint,
		WAL:          *wal,
		Autosave:     *autosave,
		WALSync:      *walSync,
		Workers:      *workers,
		Batch:        *batchSize,
		Seed:         *seed,
		CorpusCache:  *corpusCache,
		Shards:       *shards,
		PoolSample:   *poolSample,
		Rate:         *rate,
		Burst:        *burst,
		Retries:      *retries,
		Faults:       *faults,
		FaultSeed:    *faultSeed,
		MaxAttempts:  *maxAttempts,
		Breaker:      *breakerN,
		Deadline:     *deadline,
		QueryTimeout: *queryTO,
		RetryBudget:  *retryBudget,
		Health:       *health,
		Log:          os.Stderr,
		CrashPoint:   os.Getenv(durable.CrashEnv),
	}
	if *enrichCols != "" {
		req.EnrichColumns = strings.Split(*enrichCols, ",")
	}
	local, err := relational.ReadFile("local", *localPath)
	if err != nil {
		fatal(err)
	}
	req.Local = local
	if err := req.Validate(); err != nil {
		// A usage error: exit status 2, as the flag package uses.
		fmt.Fprintln(os.Stderr, "smartcrawl:", cliError(err))
		os.Exit(2)
	}

	stopProfiles, profErr := profiling.Start(*cpuProfile, *memProfile)
	if profErr != nil {
		fatal(profErr)
	}
	defer stopProfiles()

	// Observability: -trace records the session as JSONL, -metrics prints
	// the end-of-run summary. Disabled (nil sink) when neither is set, so
	// the default path pays one branch per hook.
	var tracer *obs.Tracer
	if *tracePath != "" || *metrics {
		req.Obs = obs.New()
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			tracer = obs.NewTracer(bufio.NewWriter(f))
			req.Obs.SetTracer(tracer)
		}
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops selection at the
	// next round boundary and drains in-flight queries — every charged
	// query's outcome is kept and saved; a second signal aborts hard.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req.Context = ctx
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "smartcrawl: interrupt — draining in-flight queries (repeat to abort)")
		cancel()
		<-sigs
		fmt.Fprintln(os.Stderr, "smartcrawl: aborted")
		os.Exit(130)
	}()

	out, err := engine.Run(req)
	if err != nil {
		fatal(cliError(err))
	}
	if out.Interrupted {
		if *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "interrupted: state saved — resumable with -checkpoint %s\n", *checkpoint)
		} else {
			fmt.Fprintln(os.Stderr, "interrupted: no -checkpoint set, crawl progress not saved")
		}
	}

	// End-of-run observability: summary to stderr, trace flushed to disk.
	if req.Obs != nil {
		req.Obs.WriteSummary(os.Stderr)
	}
	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "warning: trace incomplete: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "trace written to %s\n", *tracePath)
		}
	}

	dst := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		dst = f
	}
	if err := out.Local.Write(dst, strings.HasSuffix(*outPath, ".jsonl")); err != nil {
		fatal(err)
	}
}

// cliError rewrites engine-level misuse messages in terms of the flags
// the user actually typed.
func cliError(err error) error {
	msg := err.Error()
	for _, r := range [][2]string{
		{"engine: exactly one of Hidden and URL is required", "exactly one of -hidden or -url is required"},
		{"engine: Interfaces replaces Hidden/URL", "-interfaces replaces -hidden/-url"},
		{"engine: theta ", "-theta "},
		{"engine: sample-target ", "-sample-target "},
		{"engine: strategy full needs a sample (Theta or SampleTarget > 0)", "-strategy full needs a sample (-theta or -sample-target > 0)"},
		{"engine: federated crawls take faults/rate/breaker per interface (inside the spec)", "-interfaces crawls take faults/rate/breaker per interface (inside the spec)"},
		{"engine: checkpoints support the smart/simple/online strategies", "-checkpoint supports the smart/simple/online strategies"},
		{"engine: federation supports the smart/simple/online strategies", "-interfaces supports the smart/simple/online strategies"},
		{"engine: Workers must be >= 1", "-workers must be >= 1"},
		{"engine: Batch must be >= 0", "-batch must be >= 0"},
		{"engine: Budget must be >= 0", "-budget must be >= 0"},
		{"engine: Retries must be >= 0", "-retries must be >= 0"},
		{"engine: Rate must be >= 0", "-rate must be >= 0"},
		{"engine: WAL requires Checkpoint (the journal compacts into it)", "-wal requires -checkpoint (the journal compacts into it)"},
		{"engine: WALSync must be", "-wal-sync must be"},
		{"engine: Autosave must be >= 0", "-autosave must be >= 0"},
		{"engine: Deadline must be >= 0", "-deadline must be >= 0"},
		{"engine: QueryTimeout must be >= 0", "-query-timeout must be >= 0"},
		{"engine: RetryBudget must be >= 0", "-retry-budget must be >= 0"},
		{"engine: Health scoring requires a federated crawl (Interfaces)", "-health requires -interfaces"},
		{"engine: Shards must be >= 0", "-shards must be >= 0"},
		{"engine: PoolSample must be >= 0", "-pool-sample must be >= 0"},
		{"engine: PoolSample requires CorpusCache (exact supports are recounted against its index)", "-pool-sample requires -corpus-cache (exact supports are recounted against its index)"},
	} {
		if strings.HasPrefix(msg, r[0]) {
			return fmt.Errorf("%s%s", r[1], strings.TrimPrefix(msg, r[0]))
		}
	}
	return err
}

// inspectCheckpoint prints what a checkpoint (and optional journal) pair
// holds, in grep-friendly key=value lines, without crawling or modifying
// either file.
func inspectCheckpoint(snapshot, journal string) {
	rec, err := smartcrawl.RecoverCrawl(snapshot, journal, 0)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("snapshot=%s loaded=%t snapshot_seq=%d\n", snapshot, rec.SnapshotLoaded, rec.SnapshotSeq)
	if journal != "" {
		fmt.Printf("journal=%s records=%d last_seq=%d torn_tail=%t\n",
			journal, rec.JournalRecords, rec.LastSeq, rec.TornTail)
	}
	if rec.Result == nil {
		fmt.Println("state=empty")
		return
	}
	res := rec.Result
	fmt.Printf("queries_issued=%d covered_count=%d charged=%d local_len=%d steps=%d\n",
		res.QueriesIssued, res.CoveredCount, rec.Charged, rec.LocalLen, len(res.Steps))
	fmt.Printf("pending=%d\n", len(rec.Pending))
	for _, p := range rec.Pending {
		fmt.Printf("pending_query=%q benefit=%g\n", p.Query.Key(), p.Benefit)
	}
	if res.Resilience != nil {
		fmt.Println(res.Resilience.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smartcrawl:", err)
	os.Exit(1)
}
