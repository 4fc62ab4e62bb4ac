package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"time"
)

// scraper is the open-loop /metrics client: scrape i is due at
// start + i/hz whatever earlier scrapes did, and its latency is timed
// from when it was due, so a stall also counts against the scrapes
// queued behind it.
type scraper struct {
	url      string
	interval time.Duration
	client   *http.Client
	quit     chan struct{}
	done     chan scrapeStats
}

// scrapeStats summarizes a scraper's run.
type scrapeStats struct {
	attempted, failed int
	latencyMs         []float64 // from due time to body read
	lateMs            []float64 // how late each scrape was sent
	bytes             []float64
}

func newScraper(url string, hz float64) *scraper {
	return &scraper{
		url:      url,
		interval: time.Duration(float64(time.Second) / hz),
		// Its own transport: the scraper holds one connection of its own.
		client: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		quit:   make(chan struct{}),
		done:   make(chan scrapeStats, 1),
	}
}

func (s *scraper) start() { go s.loop() }

func (s *scraper) loop() {
	var st scrapeStats
	defer func() {
		s.client.CloseIdleConnections()
		s.done <- st
	}()
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * s.interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-s.quit:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-s.quit:
				return
			default:
			}
		}
		sent := time.Now()
		st.attempted++
		n, err := s.scrape()
		if err != nil {
			st.failed++
			fmt.Fprintln(os.Stderr, "ledger: scrape:", err)
			continue
		}
		st.latencyMs = append(st.latencyMs, time.Since(due).Seconds()*1e3)
		st.lateMs = append(st.lateMs, sent.Sub(due).Seconds()*1e3)
		st.bytes = append(st.bytes, float64(n))
	}
}

func (s *scraper) scrape() (int, error) {
	resp, err := s.client.Get(s.url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d", s.url, resp.StatusCode)
	}
	return int(n), nil
}

// stop ends the loop and returns its statistics once it has exited.
func (s *scraper) stop() scrapeStats {
	close(s.quit)
	return <-s.done
}
