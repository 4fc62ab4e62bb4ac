package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/deepweb/httpapi"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/obs/promexport"
	"smartcrawl/internal/sample"
)

// localSurface crawls the in-process hidden.Database.
type localSurface struct{ u *universe }

func (s *localSurface) crawl() (digest, cost, error) { return smartCrawl(s.u, s.u.db) }

func (s *localSurface) traced() (layers, digest, error) {
	plain, err := timed(s.u, s.crawl)
	if err != nil {
		return nil, digest{}, err
	}
	tr, err := runTracedCrawl(s.u, s.u.db, nil, nil)
	if err != nil {
		return nil, digest{}, err
	}
	ly := tr.layers()
	ly[plainRunS] = plain
	return ly, digestOf(tr.res), nil
}

// timed runs an untraced crawl, checks its output against the oracle,
// and returns its wall time.
func timed(u *universe, crawl func() (digest, cost, error)) (float64, error) {
	d, c, err := crawl()
	if err == nil {
		err = u.check(d)
	}
	return c.wall, err
}

func (s *localSurface) scraper() *scraper { return nil }
func (s *localSurface) close()            {}

// smartCrawl is one untraced crawl through crawler.NewSmart/Run; its
// cost covers NewSmart and Run.
func smartCrawl(u *universe, s deepweb.Searcher) (digest, cost, error) {
	m := startMeter()
	c, err := crawler.NewSmart(u.env(s), u.smartConfig(u.w.workers))
	if err != nil {
		return digest{}, cost{}, err
	}
	res, err := c.Run(budget)
	spent := m.stop()
	if err != nil {
		return digest{}, cost{}, err
	}
	return digestOf(res), spent, nil
}

// server is a loopback HTTP server the benchmark owns.
type server struct {
	hs   *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the server down and waits for its serve loop to exit.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "ledger: server:", err)
	}
}

// httpSurface serves the hidden database the way cmd/hiddenserver does
// (httpapi.Server with obs, /metrics) and crawls it through one
// httpapi.Client.
type httpSurface struct {
	u      *universe
	srv    *server
	client *httpapi.Client
	scr    *scraper
}

func openHTTP(u *universe) (*httpSurface, error) {
	o := obs.New()
	api := httpapi.NewServer(u.db, u.tk, nil)
	api.SetObs(o)
	mux := http.NewServeMux()
	mux.Handle("/", api.Handler())
	mux.Handle("/metrics", promexport.Handler(func(c *promexport.Collection) { c.CollectObs(o) }))
	srv, err := serve(mux)
	if err != nil {
		return nil, err
	}
	// One connection per crawl worker, and no more.
	tr := &http.Transport{MaxConnsPerHost: u.w.workers, MaxIdleConnsPerHost: u.w.workers}
	s := &httpSurface{u: u, srv: srv, client: &httpapi.Client{
		BaseURL:    srv.url,
		HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: tr},
		Retries:    5,
	}}
	// k guard: an unprobed client reports k=0, which silently changes
	// selection (every result looks solid).
	pool := sample.SingleKeywordPool(u.local, u.tk)
	if len(pool) == 0 {
		srv.close()
		return nil, errors.New("local table has no keywords to probe with")
	}
	if err := s.client.Probe(pool[0]); err != nil {
		srv.close()
		return nil, fmt.Errorf("probing hidden server: %w", err)
	}
	if got := s.client.K(); got != u.db.K() {
		srv.close()
		return nil, fmt.Errorf("k guard: client reports k=%d, server k=%d", got, u.db.K())
	}
	if u.w.scrapeHz > 0 {
		s.scr = newScraper(srv.url+"/metrics", u.w.scrapeHz)
	}
	return s, nil
}

func (s *httpSurface) crawl() (digest, cost, error) { return smartCrawl(s.u, s.client) }

func (s *httpSurface) traced() (layers, digest, error) {
	plain, err := timed(s.u, s.crawl)
	if err != nil {
		return nil, digest{}, err
	}
	tr, err := runTracedCrawl(s.u, s.client, nil, nil)
	if err != nil {
		return nil, digest{}, err
	}
	ly := tr.layers()
	ly[plainRunS] = plain
	// The query log replayed in-process, then over HTTP: the difference
	// is the API's own cost (encode, loopback, decode).
	var inproc, overHTTP time.Duration
	for _, st := range tr.res.Steps {
		t0 := time.Now()
		if _, err := s.u.db.Search(st.Query); err != nil {
			return nil, digest{}, err
		}
		inproc += time.Since(t0)
		t0 = time.Now()
		if _, err := s.client.Search(st.Query); err != nil {
			return nil, digest{}, err
		}
		overHTTP += time.Since(t0)
	}
	ly["hidden.search_s"] = inproc.Seconds()
	ly["httpapi.overhead_s"] = (overHTTP - inproc).Seconds()
	return ly, digestOf(tr.res), nil
}

func (s *httpSurface) scraper() *scraper { return s.scr }
func (s *httpSurface) close() {
	s.srv.close()
	s.client.HTTPClient.CloseIdleConnections()
}
