package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"smartcrawl/internal/crawler"
)

// digest identifies a crawl's output: a hash over the issued-query log,
// the covered local records and the hidden record each was matched to,
// plus the two counts the paper's invariants are stated on.
type digest struct {
	Sum     string `json:"sum"`
	Covered int    `json:"covered"`
	Queries int    `json:"queries"`
}

func digestOf(res *crawler.Result) digest {
	h := sha256.New()
	for _, st := range res.Steps {
		fmt.Fprintf(h, "q %s\n", strings.Join(st.Query, " "))
	}
	for d, c := range res.Covered {
		if !c {
			continue
		}
		hid := -1 // covered without a match: a broken result, kept visible
		if m := res.Matches[d]; m != nil {
			hid = m.ID
		}
		fmt.Fprintf(h, "c %d %d\n", d, hid)
	}
	return digest{Sum: hex.EncodeToString(h.Sum(nil))[:32], Covered: res.CoveredCount, Queries: res.QueriesIssued}
}

// reference is the recorded oracle of one universe: IdealCrawl's
// coverage at the workload budget, which depends on the tables alone, and
// the reference digest of each recorded seed.
type reference struct {
	Ideal   int               `json:"ideal"`
	Digests map[string]digest `json:"digests"`
}

// oracleFile holds the recorded references, keyed by universe.
//
//go:embed oracle.json
var oracleFile []byte

func recordedReferences() (map[string]reference, error) {
	var refs map[string]reference
	if err := json.Unmarshal(oracleFile, &refs); err != nil {
		return nil, fmt.Errorf("oracle.json: %w", err)
	}
	return refs, nil
}

// universeKey names the universe a workload crawls: crawld-durable runs
// on wide-local's universe, so both share one set of references.
func universeKey(w *workload) string {
	if w.surface == surfaceCrawld {
		return "wide-local"
	}
	return w.name
}

// applyReference takes IdealCrawl's coverage from the universe's record
// (computing it when there is none) and checks the fresh reference digest
// against the one recorded for the seed, when there is one.
func (u *universe) applyReference(refs map[string]reference) error {
	rec, ok := refs[universeKey(u.w)]
	if !ok {
		ideal, err := u.computeIdeal()
		u.ideal = ideal
		return err
	}
	u.ideal = rec.Ideal
	if want, ok := rec.Digests[strconv.FormatUint(u.seed, 10)]; ok && u.ref != want {
		return fmt.Errorf("%s seed %d: reference %+v, recorded %+v", u.w.name, u.seed, u.ref, want)
	}
	return nil
}

// check validates one measured crawl's output against the oracle: the
// paper's invariants (charged queries ≤ b, coverage ≤ IdealCrawl's at
// the same budget) and byte-identity with the reference crawl.
func (u *universe) check(d digest) error {
	switch {
	case d.Queries > budget:
		return fmt.Errorf("charged %d queries over budget %d", d.Queries, budget)
	case d.Covered > u.ideal:
		return fmt.Errorf("covered %d records, above IdealCrawl's %d", d.Covered, u.ideal)
	case d != u.ref:
		return fmt.Errorf("output %+v differs from reference %+v", d, u.ref)
	}
	return nil
}

// oracleSeeds is how many seeds, from 1 up, oracle.json records.
const oracleSeeds = 100

// recordOracle computes the references of every universe for seeds
// 1..oracleSeeds and writes them as oracle.json to path.
func recordOracle(path string) error {
	refs := map[string]reference{}
	for _, w := range workloads {
		key := universeKey(w)
		if _, done := refs[key]; done {
			continue
		}
		rec := reference{Digests: map[string]digest{}}
		for seed := uint64(1); seed <= oracleSeeds; seed++ {
			u, err := newUniverse(w, seed)
			if err != nil {
				return err
			}
			if seed == 1 {
				if rec.Ideal, err = u.computeIdeal(); err != nil {
					return err
				}
			}
			rec.Digests[strconv.FormatUint(seed, 10)] = u.ref
			fmt.Fprintf(os.Stderr, "%s seed %d: %+v\n", key, seed, u.ref)
		}
		refs[key] = rec
	}
	buf, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
