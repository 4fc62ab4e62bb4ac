package smartcrawl_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildTool compiles a cmd binary into dir and returns its path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// TestCLIPipeline runs the full command-line workflow: generate a dataset,
// crawl it with the simulated interface, and check the enriched CSV.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	gendata := buildTool(t, dir, "gendata")
	crawlBin := buildTool(t, dir, "smartcrawl")

	// 1. Generate a small DBLP-like dataset.
	out, err := exec.Command(gendata,
		"-kind", "dblp", "-hidden", "2000", "-local", "300",
		"-corpus", "8000", "-seed", "7", "-out", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("gendata: %v\n%s", err, out)
	}
	for _, f := range []string{"dblp_local.csv", "dblp_hidden.csv", "dblp_truth.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}

	// 2. Crawl and enrich with citations.
	enriched := filepath.Join(dir, "enriched.csv")
	out, err = exec.Command(crawlBin,
		"-local", filepath.Join(dir, "dblp_local.csv"),
		"-hidden", filepath.Join(dir, "dblp_hidden.csv"),
		"-budget", "100", "-k", "100", "-rank-column", "3",
		"-theta", "0.02", "-enrich", "citations",
		"-out", enriched).CombinedOutput()
	if err != nil {
		t.Fatalf("smartcrawl: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "records enriched") {
		t.Fatalf("unexpected crawl report:\n%s", out)
	}

	// 3. The enriched CSV must have the new column with real values.
	data, err := os.ReadFile(enriched)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 301 { // header + 300 rows
		t.Fatalf("enriched CSV has %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "h_citations") {
		t.Fatalf("header missing h_citations: %q", lines[0])
	}
	filled := 0
	for _, l := range lines[1:] {
		cols := strings.Split(l, ",")
		if v := cols[len(cols)-1]; v != "" {
			filled++
		}
	}
	if filled < 150 {
		t.Fatalf("only %d/300 rows enriched", filled)
	}
	t.Logf("CLI pipeline enriched %d/300 rows", filled)
}

// TestCLIExperimentsTable2 smoke-tests the experiments tool on its fastest
// subcommand.
func TestCLIExperimentsTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "experiments")
	out, err := exec.Command(bin, "-csv", dir, "table2").CombinedOutput()
	if err != nil {
		t.Fatalf("experiments table2: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "true benefit") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "table2_0.csv")); err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
}

// TestCLICheckpointResume exercises the quota-window workflow through the
// command line: two budget-limited invocations sharing a -checkpoint file
// must make monotone progress.
func TestCLICheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	gendata := buildTool(t, dir, "gendata")
	crawlBin := buildTool(t, dir, "smartcrawl")

	out, err := exec.Command(gendata,
		"-kind", "dblp", "-hidden", "2000", "-local", "300",
		"-corpus", "8000", "-seed", "11", "-out", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("gendata: %v\n%s", err, out)
	}
	ckpt := filepath.Join(dir, "crawl.ckpt")
	runOnce := func() string {
		out, err := exec.Command(crawlBin,
			"-local", filepath.Join(dir, "dblp_local.csv"),
			"-hidden", filepath.Join(dir, "dblp_hidden.csv"),
			"-budget", "6", "-k", "10", "-rank-column", "3",
			"-theta", "0.02", "-enrich", "citations",
			"-checkpoint", ckpt,
			"-out", filepath.Join(dir, "enriched.csv")).CombinedOutput()
		if err != nil {
			t.Fatalf("smartcrawl: %v\n%s", err, out)
		}
		return string(out)
	}
	first := runOnce()
	if !strings.Contains(first, "checkpoint written") {
		t.Fatalf("no checkpoint written:\n%s", first)
	}
	second := runOnce()
	if !strings.Contains(second, "resuming:") {
		t.Fatalf("second run did not resume:\n%s", second)
	}
	e1 := enrichedCount(t, first)
	e2 := enrichedCount(t, second)
	if e2 <= e1 {
		t.Fatalf("no progress across sessions: %d then %d", e1, e2)
	}
	t.Logf("session 1 enriched %d, session 2 enriched %d", e1, e2)
}

func enrichedCount(t *testing.T, out string) int {
	t.Helper()
	// "crawl: N queries issued, X/300 records enriched (..%)"
	i := strings.Index(out, "queries issued, ")
	if i < 0 {
		t.Fatalf("no enrichment line in:\n%s", out)
	}
	rest := out[i+len("queries issued, "):]
	var x, y int
	if _, err := fmt.Sscanf(rest, "%d/%d", &x, &y); err != nil {
		t.Fatalf("parsing %q: %v", rest, err)
	}
	return x
}

// TestCLIRemoteCrawl runs the full remote workflow: hiddenserver serving a
// generated CSV over HTTP, and the smartcrawl CLI crawling it through
// -url with interface-built sampling.
func TestCLIRemoteCrawl(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	gendata := buildTool(t, dir, "gendata")
	serverBin := buildTool(t, dir, "hiddenserver")
	crawlBin := buildTool(t, dir, "smartcrawl")

	out, err := exec.Command(gendata,
		"-kind", "yelp", "-hidden", "2000", "-local", "200",
		"-seed", "13", "-out", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("gendata: %v\n%s", err, out)
	}

	addr := startHiddenserver(t, serverBin,
		"-table", filepath.Join(dir, "yelp_hidden.csv"),
		"-k", "50", "-rank-column", "3")

	out, err = exec.Command(crawlBin,
		"-local", filepath.Join(dir, "yelp_local.csv"),
		"-url", "http://"+addr,
		"-budget", "60", "-sample-target", "40",
		"-enrich", "col2,col3", "-fuzzy", "0.6",
		"-out", filepath.Join(dir, "enriched_remote.csv")).CombinedOutput()
	if err != nil {
		t.Fatalf("smartcrawl -url: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "records enriched") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	n := enrichedCount(t, string(out))
	if n == 0 {
		t.Fatalf("remote crawl enriched nothing:\n%s", out)
	}
	t.Logf("remote crawl enriched %d/200 records", n)

	// The crawl drove real traffic through the server, so its Prometheus
	// endpoint must now expose nonzero serving counters.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	if !strings.Contains(metrics, "# TYPE smartcrawl_queries_issued_total counter") {
		t.Errorf("/metrics missing queries_issued family:\n%.400s", metrics)
	}
	if strings.Contains(metrics, "smartcrawl_queries_issued_total 0\n") {
		t.Errorf("/metrics shows zero served queries after a crawl:\n%.400s", metrics)
	}
	if !strings.Contains(metrics, "smartcrawl_search_latency_seconds_bucket{le=\"+Inf\"}") {
		t.Errorf("/metrics missing latency histogram:\n%.400s", metrics)
	}
}

// startHiddenserver runs the hiddenserver binary on a kernel-picked
// port, waits until /healthz answers, and returns the bound address. The
// server is interrupted when the test ends.
func startHiddenserver(t *testing.T, bin string, args ...string) string {
	t.Helper()
	// The server binds :0 itself and announces the bound address — no
	// pick-then-rebind race.
	server := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	stdout, err := server.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = server.Process.Signal(os.Interrupt)
		_, _ = server.Process.Wait()
	})
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			addr = a
			break
		}
	}
	if addr == "" {
		t.Fatal("hiddenserver never announced its address")
	}
	go io.Copy(io.Discard, stdout)

	// The announce happens after Listen, so the port is already open —
	// one readiness probe confirms the handler is serving.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("hiddenserver did not become ready")
		}
		time.Sleep(50 * time.Millisecond)
	}
	return addr
}

// TestHiddenserverProfiles serves two interfaces from one hiddenserver
// process with -profiles: each answers /<name>/search with its own k,
// and nothing is mounted at the root.
func TestHiddenserverProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	gendata := buildTool(t, dir, "gendata")
	serverBin := buildTool(t, dir, "hiddenserver")
	if out, err := exec.Command(gendata,
		"-kind", "yelp", "-hidden", "2000", "-local", "20",
		"-seed", "13", "-out", dir).CombinedOutput(); err != nil {
		t.Fatalf("gendata: %v\n%s", err, out)
	}
	table := filepath.Join(dir, "yelp_hidden.csv")
	addr := startHiddenserver(t, serverBin, "-profiles",
		"name=a,hidden="+table+",k=3;name=b,hidden="+table+",k=7,rank-column=3")

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	for _, tc := range []struct {
		name string
		k    int
	}{{"a", 3}, {"b", 7}} {
		code, body := get("/" + tc.name + "/search?q=kitchen")
		if code != http.StatusOK {
			t.Fatalf("/%s/search: status %d: %s", tc.name, code, body)
		}
		var res struct {
			K       int               `json:"k"`
			Records []json.RawMessage `json:"records"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("/%s/search: %v: %s", tc.name, err, body)
		}
		if res.K != tc.k || len(res.Records) != tc.k {
			t.Errorf("/%s/search: k=%d with %d records, want a full page of %d",
				tc.name, res.K, len(res.Records), tc.k)
		}
	}
	if code, _ := get("/search?q=kitchen"); code != http.StatusNotFound {
		t.Errorf("/search with only named profiles: status %d, want 404", code)
	}
}

// TestCrawldMetricsEndpoint boots the real crawld binary and scrapes
// GET /metrics: the daemon families must render in Prometheus text
// format even before any job is submitted.
func TestCrawldMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	crawld := buildTool(t, dir, "crawld")

	daemon := exec.Command(crawld, "-data", filepath.Join(dir, "data"), "-addr", "127.0.0.1:0")
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = daemon.Process.Signal(os.Interrupt)
		_, _ = daemon.Process.Wait()
	}()
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "crawld listening on "); ok {
			addr = a
			break
		}
	}
	if addr == "" {
		t.Fatal("crawld never announced its address")
	}
	go io.Copy(io.Discard, stdout)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == 200 {
				metrics := string(body)
				for _, want := range []string{
					"# TYPE crawld_jobs gauge",
					`crawld_jobs{state="queued"} 0`,
					`crawld_jobs{state="running"} 0`,
					"crawld_draining 0",
					"crawld_tenant_budget_cap_queries 0",
				} {
					if !strings.Contains(metrics, want) {
						t.Errorf("/metrics missing %q in:\n%.600s", want, metrics)
					}
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("crawld /metrics never became ready")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
