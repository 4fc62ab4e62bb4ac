// HTTP crawl: runs the whole pipeline over a network boundary. The example
// starts a hiddenserver-style HTTP API (with a request rate limit) in this
// process, then crawls it with the HTTP client — the crawler sees nothing
// but GET /search?q=… with top-k responses and 429s, exactly like a real
// web API.
//
// Run with: go run ./examples/http_crawl
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"smartcrawl"
	"smartcrawl/internal/dataset"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/deepweb/httpapi"
)

func main() {
	// Server side: a Yelp-like hidden database behind an HTTP API
	// allowing bursts of 50 requests, refilling 200/second.
	in, err := dataset.GenerateYelp(dataset.YelpConfig{
		HiddenSize: 4000,
		LocalSize:  400,
		Seed:       21,
	})
	if err != nil {
		log.Fatal(err)
	}
	tk := smartcrawl.NewTokenizer()
	db := smartcrawl.NewHiddenDatabase(in.Hidden, tk, smartcrawl.HiddenOptions{
		K:          50,
		RankColumn: in.RankColumn,
	})
	limiter := deepweb.NewBucket(50, 200)
	server := httptest.NewServer(httpapi.NewServer(db, tk, limiter).Handler())
	defer server.Close()
	fmt.Printf("hidden database serving %d records at %s\n", in.Hidden.Len(), server.URL)

	// Client side: only the URL is known.
	client := &httpapi.Client{
		BaseURL:    server.URL,
		HTTPClient: &http.Client{Timeout: 10 * time.Second},
		Retries:    10,
		RetryDelay: 50 * time.Millisecond, // back off when rate limited
	}
	if err := client.Probe(smartcrawl.Query{"thai"}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interface reports top-k = %d\n", client.K())

	// Build the sample through the HTTP interface.
	pool := smartcrawl.SingleKeywordPool(in.Local, tk)
	smp, err := smartcrawl.KeywordSample(client, pool, tk, smartcrawl.KeywordSampleConfig{
		Target:     80,
		MaxQueries: 20000,
		Seed:       5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sampled %d records over HTTP (θ̂ = %.3f%%, %d requests)\n",
		smp.Len(), 100*smp.Theta, smp.QueriesSpent)

	env := &smartcrawl.Env{
		Local:     in.Local,
		Searcher:  client,
		Tokenizer: tk,
		Matcher:   smartcrawl.NewExactMatcherOn(tk, in.LocalKey, in.HiddenKey),
	}
	crawler, err := smartcrawl.NewSmartCrawler(env, smartcrawl.SmartOptions{Sample: smp})
	if err != nil {
		log.Fatal(err)
	}
	res, err := crawler.Run(120)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crawl over HTTP: %d queries, covered %d/%d local records (%.1f%%)\n",
		res.QueriesIssued, res.CoveredCount, in.Local.Len(),
		100*float64(res.CoveredCount)/float64(in.Local.Len()))
}
