package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/durable"
	"smartcrawl/internal/index"
	"smartcrawl/internal/jobs"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/obs/promexport"
)

// crawldSurface runs crawld in-process the way cmd/crawld wires it —
// jobs.Manager behind jobs.Server, promexport on /metrics — and submits
// one job at a time over loopback HTTP.
type crawldSurface struct {
	u      *universe
	dir    string
	mgr    *jobs.Manager
	srv    *server
	client *http.Client
	spec   []byte // the POST /jobs body
	scr    *scraper
	n      int // replica crawls run, for scratch paths
}

func openCrawld(u *universe, dir string) (*crawldSurface, error) {
	hiddenPath := filepath.Join(dir, "hidden.csv")
	var hb bytes.Buffer
	if err := u.hiddenT.WriteCSV(&hb); err != nil {
		return nil, err
	}
	if err := os.WriteFile(hiddenPath, hb.Bytes(), 0o644); err != nil {
		return nil, err
	}
	var lb strings.Builder
	if err := u.local.WriteCSV(&lb); err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(hiddenPath)
	if err != nil {
		return nil, err
	}
	rank := u.rankCol
	spec, err := json.Marshal(jobs.Spec{
		LocalCSV:    lb.String(),
		Hidden:      abs,
		Budget:      budget,
		K:           topK,
		RankColumn:  &rank,
		Theta:       theta,
		Seed:        sampleSeed(u.seed),
		Batch:       batch,
		Workers:     u.w.workers,
		CorpusCache: true,
	})
	if err != nil {
		return nil, err
	}
	mgr, err := jobs.Open(jobs.Config{Dir: filepath.Join(dir, "crawld"), Workers: 2, AllowLocal: true, Log: io.Discard})
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", jobs.NewServer(mgr).Handler())
	mux.Handle("/metrics", promexport.Handler(mgr.CollectProm))
	srv, err := serve(mux)
	if err != nil {
		mgr.Drain()
		return nil, err
	}
	s := &crawldSurface{
		u: u, dir: dir, mgr: mgr, srv: srv, spec: spec,
		client: &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	if u.w.scrapeHz > 0 {
		s.scr = newScraper(srv.url+"/metrics", u.w.scrapeHz)
	}
	return s, nil
}

// jobTiming is what one job's client observed.
type jobTiming struct {
	spent  cost          // from POST /jobs until the result was readable
	submit time.Duration // POST /jobs round trip
	job    *jobs.Job     // the settled job record
}

// runJob submits the job, follows its event stream to the end, reads the
// result, and returns the digest of its final checkpoint. Only the span
// from POST to a readable result is the job's cost; fetching the job
// record and checkpoint for the oracle and removing the job's files come
// after it.
func (s *crawldSurface) runJob() (digest, jobTiming, error) {
	var jt jobTiming
	m := startMeter()
	t0 := time.Now()
	var job jobs.Job
	if err := s.do(http.MethodPost, "/jobs", s.spec, http.StatusAccepted, &job); err != nil {
		return digest{}, jt, err
	}
	jt.submit = time.Since(t0)
	state, err := s.follow(job.ID)
	if err != nil {
		return digest{}, jt, err
	}
	if state != string(jobs.StateDone) {
		return digest{}, jt, fmt.Errorf("job %s ended %s", job.ID, state)
	}
	if err := s.do(http.MethodGet, "/jobs/"+job.ID+"/result", nil, http.StatusOK, nil); err != nil {
		return digest{}, jt, err
	}
	jt.spent = m.stop()

	jt.job = &jobs.Job{}
	if err := s.do(http.MethodGet, "/jobs/"+job.ID, nil, http.StatusOK, jt.job); err != nil {
		return digest{}, jt, err
	}
	resp, err := s.client.Get(s.srv.url + "/jobs/" + job.ID + "/checkpoint")
	if err != nil {
		return digest{}, jt, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return digest{}, jt, fmt.Errorf("checkpoint of %s: status %d", job.ID, resp.StatusCode)
	}
	res, err := crawler.LoadResult(resp.Body)
	if err != nil {
		return digest{}, jt, fmt.Errorf("checkpoint of %s: %w", job.ID, err)
	}
	// The job's files are no longer read by the daemon; dropping them
	// keeps a long run's disk use flat.
	if err := os.RemoveAll(filepath.Join(s.dir, "crawld", "jobs", job.ID)); err != nil {
		return digest{}, jt, err
	}
	return digestOf(res), jt, nil
}

// follow reads the job's JSONL event stream until its final state line.
func (s *crawldSurface) follow(id string) (string, error) {
	resp, err := s.client.Get(s.srv.url + "/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	state := ""
	for sc.Scan() {
		var ev struct {
			Type  string `json:"type"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("events of %s: %w", id, err)
		}
		if ev.Type == "state" {
			state = ev.State
		}
	}
	return state, sc.Err()
}

// do issues one request and decodes a JSON reply into out (nil drains).
func (s *crawldSurface) do(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, s.srv.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(buf))
	}
	if out != nil {
		return json.Unmarshal(buf, out)
	}
	return nil
}

func (s *crawldSurface) crawl() (digest, cost, error) {
	d, jt, err := s.runJob()
	return d, jt.spent, err
}

// traced runs a job for the service-side layers, then replays it as an
// in-process crawl over the same kind of state a job builds — a corpus
// cache streamed to disk and mapped, a WAL-backed durable sink — with
// the decorators on, for the crawl-side layers.
func (s *crawldSurface) traced() (layers, digest, error) {
	d, jt, err := s.runJob()
	if err != nil {
		return nil, digest{}, err
	}
	if err := s.u.check(d); err != nil {
		return nil, digest{}, fmt.Errorf("traced job: %w", err)
	}
	s.n++
	dir := filepath.Join(s.dir, fmt.Sprintf("replica%d", s.n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, digest{}, err
	}
	defer os.RemoveAll(dir)

	u := s.u
	corpusPath := filepath.Join(dir, "corpus.scorp")
	t0 := time.Now()
	b := index.NewCorpusBuilder(index.IngestConfig{})
	for id, r := range u.local.Records {
		if err := b.AddRecord(id, r.Tokens(u.tk)); err != nil {
			return nil, digest{}, err
		}
	}
	if err := b.Finalize(corpusPath); err != nil {
		return nil, digest{}, err
	}
	buildS := time.Since(t0).Seconds()
	t0 = time.Now()
	cf, err := index.OpenCorpus(corpusPath)
	if err != nil {
		return nil, digest{}, err
	}
	openS := time.Since(t0).Seconds()
	defer cf.Close()

	// The untraced twin, for the trace overhead.
	plain, err := timed(u, func() (digest, cost, error) {
		sink, _, err := openSink(u, filepath.Join(dir, "plain"))
		if err != nil {
			return digest{}, cost{}, err
		}
		m := startMeter()
		env := u.env(u.db)
		env.Corpus = cf
		cfg := u.smartConfig(u.w.workers)
		cfg.PoolConfig.Dict = cf.Dict
		cfg.Durability = sink
		c, err := crawler.NewSmart(env, cfg)
		if err != nil {
			sink.Close(nil)
			return digest{}, cost{}, err
		}
		res, err := c.Run(budget)
		spent := m.stop()
		if err != nil {
			sink.Close(nil)
			return digest{}, cost{}, err
		}
		return digestOf(res), spent, sink.Close(res)
	})
	if err != nil {
		return nil, digest{}, err
	}

	sink, o, err := openSink(u, filepath.Join(dir, "traced"))
	if err != nil {
		return nil, digest{}, err
	}
	tr, err := runTracedCrawl(u, u.db, cf, sink)
	if err != nil {
		sink.Close(nil)
		return nil, digest{}, err
	}
	if err := sink.Close(tr.res); err != nil {
		return nil, digest{}, err
	}

	ly := tr.layers()
	ly[plainRunS] = plain
	ly["index.corpus_build_s"] = buildS
	ly["index.corpus_open_s"] = openS
	ly["durable.journal_bytes"] = float64(o.WalBytes.Value())
	ly["durable.compactions"] = float64(sink.Compactions())
	ly["jobs.submit_ms"] = jt.submit.Seconds() * 1e3
	if jt.job.Started != nil {
		ly["jobs.queue_wait_s"] = jt.job.Started.Sub(jt.job.Created).Seconds()
	}
	var shed int64
	for _, n := range s.mgr.ShedCounts() {
		shed += n
	}
	ly["jobs.shed"] = float64(shed)
	return ly, digestOf(tr.res), nil
}

// openSink opens a durable sink the way the engine does for a job: a
// checkpoint plus WAL with the default autosave cadence and sync policy.
func openSink(u *universe, dir string) (*durable.Sink, *obs.Obs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	o := obs.New()
	sink, err := durable.Open(durable.Options{
		Snapshot: filepath.Join(dir, "cp.bin"),
		Journal:  filepath.Join(dir, "cp.wal"),
		Every:    durable.DefaultEvery,
		Sync:     durable.SyncCompact,
		LocalLen: u.local.Len(),
		Obs:      o,
	})
	return sink, o, err
}

func (s *crawldSurface) scraper() *scraper { return s.scr }

func (s *crawldSurface) close() {
	s.srv.close()
	s.mgr.Drain()
	s.client.CloseIdleConnections()
}
