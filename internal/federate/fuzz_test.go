package federate_test

import (
	"testing"

	"smartcrawl/internal/federate"
)

// FuzzParseSpecs ensures arbitrary -interfaces grammars never panic the
// parser, and that every accepted parse satisfies the grammar's
// invariants: at least one spec, exactly one of hidden=/url= per
// interface, θ in [0, 1], a non-negative sample target, and unique
// non-empty names.
func FuzzParseSpecs(f *testing.F) {
	f.Add("hidden=a.csv")
	f.Add("name=yelp,hidden=yelp.csv,k=10,rank-column=3,theta=0.01")
	f.Add("name=g,url=http://localhost:8081,sample-target=200,faults=transient10,fault-seed=3,rate=5,retries=3,breaker=5")
	f.Add("hidden=a.csv;hidden=b.jsonl,non-conjunctive=true,seed=7")
	f.Add("hidden=a.csv,faults=timeout=0.1+unavailable=0.05,fault-latency=5ms")
	f.Add("url=x,hidden=y") // both set: must error
	f.Add("k=10")           // neither set: must error
	f.Add(";;;")
	f.Add("hidden=a.csv,k=NaN")
	f.Add("hidden=a.csv,bogus=1")
	f.Add("hidden=a.csv,faults=bogus=zzz")
	f.Add(" hidden = a.csv , k = 9 ")
	f.Add("hidden=a.csv,theta=2")
	f.Add("name=a,hidden=a.csv;name=a,url=http://x")
	f.Fuzz(func(t *testing.T, s string) {
		specs, err := federate.ParseSpecs(s)
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatalf("ParseSpecs(%q) accepted an empty interface list", s)
		}
		names := make(map[string]bool, len(specs))
		for i, sp := range specs {
			if (sp.Hidden == "") == (sp.URL == "") {
				t.Fatalf("ParseSpecs(%q) spec %d: hidden=%q url=%q violates exactly-one",
					s, i, sp.Hidden, sp.URL)
			}
			if !(sp.Theta >= 0 && sp.Theta <= 1) || sp.SampleTarget < 0 {
				t.Fatalf("ParseSpecs(%q) spec %d: theta=%v sample-target=%d out of range",
					s, i, sp.Theta, sp.SampleTarget)
			}
			if sp.Name == "" || names[sp.Name] {
				t.Fatalf("ParseSpecs(%q) spec %d: name %q empty or duplicate", s, i, sp.Name)
			}
			names[sp.Name] = true
		}
	})
}
