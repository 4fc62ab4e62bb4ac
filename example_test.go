package smartcrawl_test

import (
	"bytes"
	"fmt"
	"log"

	"smartcrawl"
)

// ExampleNewSmartCrawler shows the minimal crawl-and-enrich loop against a
// simulated hidden database.
func ExampleNewSmartCrawler() {
	tk := smartcrawl.NewTokenizer()

	hidden := smartcrawl.NewTable("yelp", []string{"name", "rating"})
	hidden.Append("Thai Noodle House", "4.0")
	hidden.Append("Saigon Ramen", "3.9")
	hidden.Append("Steak House", "4.3")
	db := smartcrawl.NewHiddenDatabase(hidden, tk, smartcrawl.HiddenOptions{K: 2, RankColumn: 1})

	local := smartcrawl.NewTable("mine", []string{"name"})
	local.Append("Thai Noodle House")
	local.Append("Saigon Ramen")

	env := &smartcrawl.Env{
		Local:     local,
		Searcher:  db,
		Tokenizer: tk,
		Matcher:   smartcrawl.NewExactMatcherOn(tk, nil, []int{0}),
	}
	c, err := smartcrawl.NewSmartCrawler(env, smartcrawl.SmartOptions{
		Sample: smartcrawl.BernoulliSample(hidden, 0.5, 1),
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := c.Run(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("covered:", res.CoveredCount)
	// Output:
	// covered: 2
}

// ExampleParseTrace traces a crawl and reads back, for each issued query,
// the estimated benefit the crawler selected it by and the coverage it
// actually added.
func ExampleParseTrace() {
	tk := smartcrawl.NewTokenizer()

	hidden := smartcrawl.NewTable("yelp", []string{"name", "rating"})
	hidden.Append("Thai Noodle House", "4.0")
	hidden.Append("Saigon Ramen", "3.9")
	hidden.Append("Steak House", "4.3")
	db := smartcrawl.NewHiddenDatabase(hidden, tk, smartcrawl.HiddenOptions{K: 2, RankColumn: 1})

	local := smartcrawl.NewTable("mine", []string{"name"})
	local.Append("Thai Noodle House")
	local.Append("Saigon Ramen")

	var buf bytes.Buffer
	o := smartcrawl.NewObs()
	o.SetTracer(smartcrawl.NewTracer(&buf))
	env := &smartcrawl.Env{
		Local:     local,
		Searcher:  db,
		Tokenizer: tk,
		Matcher:   smartcrawl.NewExactMatcherOn(tk, nil, []int{0}),
		Obs:       o,
	}
	c, err := smartcrawl.NewSmartCrawler(env, smartcrawl.SmartOptions{
		Sample: smartcrawl.BernoulliSample(hidden, 0.5, 1),
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := c.Run(2); err != nil {
		log.Fatal(err)
	}
	events, err := smartcrawl.ParseTrace(&buf)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range events {
		if q, ok := e.Data.(*smartcrawl.TraceQuery); ok {
			fmt.Printf("%q est=%g new=%d\n", q.Query, q.EstBenefit, q.NewCovered)
		}
	}
	// Output:
	// "house noodle thai" est=1 new=1
	// "ramen saigon" est=1 new=1
}

// ExampleEnrich appends a hidden attribute to the covered local records.
func ExampleEnrich() {
	tk := smartcrawl.NewTokenizer()

	hidden := smartcrawl.NewTable("yelp", []string{"name", "rating"})
	hidden.Append("Thai Noodle House", "4.0")
	hidden.Append("Saigon Ramen", "3.9")
	db := smartcrawl.NewHiddenDatabase(hidden, tk, smartcrawl.HiddenOptions{K: 2, RankColumn: 1})

	local := smartcrawl.NewTable("mine", []string{"name"})
	local.Append("Thai Noodle House")

	env := &smartcrawl.Env{
		Local:     local,
		Searcher:  db,
		Tokenizer: tk,
		Matcher:   smartcrawl.NewExactMatcherOn(tk, nil, []int{0}),
	}
	c, err := smartcrawl.NewNaiveCrawler(env, nil, 1)
	if err != nil {
		log.Fatal(err)
	}
	report, _, err := smartcrawl.Enrich(local, hidden.Schema, c, 1,
		smartcrawl.EnrichOptions{Columns: []int{1}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.NewColumns[0], "=", local.Records[0].Value(1))
	// Output:
	// h_rating = 4.0
}

// ExampleTokenizer_stemming demonstrates the opt-in Porter stemming stage.
func ExampleTokenizer_stemming() {
	tk := smartcrawl.NewTokenizer()
	tk.Stemmer = smartcrawl.PorterStem
	fmt.Println(tk.Tokens("crawling hidden databases"))
	// Output:
	// [crawl hidden databas]
}
