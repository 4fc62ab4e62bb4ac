package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smartcrawl/internal/crawler"
	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/durable"
	"smartcrawl/internal/engine"
	"smartcrawl/internal/obs"
	"smartcrawl/internal/relational"
)

// Config configures a Manager.
type Config struct {
	// Dir is the daemon's data directory; jobs live under Dir/jobs/<id>/.
	Dir string
	// Workers bounds how many crawls run concurrently (default 2).
	Workers int
	// QueueCap bounds accepted-but-unfinished jobs (queued + running);
	// admission beyond it returns ErrQueueFull (→ 429). Default 64.
	QueueCap int
	// TenantBudget is each tenant's lifetime query budget across all its
	// jobs; 0 = unlimited. A submission whose budget does not fit the
	// tenant's remaining allowance is rejected.
	TenantBudget int
	// TenantRate/TenantBurst pace submissions per tenant (jobs/sec with a
	// token-bucket burst); 0 rate = unpaced.
	TenantRate  float64
	TenantBurst int
	// RetryAfter is the Retry-After hint attached to transient admission
	// rejections (queue full, rate). Default 1s.
	RetryAfter time.Duration
	// MinDiskFree sheds submissions while the data directory's filesystem
	// has fewer than this many bytes available (→ 503 + Retry-After):
	// admitting a job the journal cannot durably absorb would turn disk
	// exhaustion into data loss. 0 disables the check; it is also skipped
	// on platforms where free space cannot be measured.
	MinDiskFree int64
	// EventBuffer bounds each job's in-memory progress feed: once a job
	// holds this many unstreamed step events the oldest are evicted
	// (counted in crawld_events_dropped_total when no streamer had read
	// them). 0 defaults to 8192; negative = unbounded.
	EventBuffer int
	// AllowLocal permits specs that read the daemon's filesystem
	// (local_path, hidden=, federated hidden= members).
	AllowLocal bool
	// Log receives one line per job transition; nil discards.
	Log io.Writer
	// CrashPoint arms crash injection in every job's durability path
	// (crawld passes SMARTCRAWL_CRASH_AT through); empty disables.
	CrashPoint string
}

// Admission errors. ErrQueueFull and ErrTenantRate are transient (the
// HTTP layer sends 429 + Retry-After); ErrTenantBudget clears only when
// other jobs settle below their reservations (429 without the hint);
// ErrDraining means the daemon is shutting down (503).
var (
	ErrQueueFull    = errors.New("jobs: queue full")
	ErrTenantRate   = errors.New("jobs: tenant submission rate exceeded")
	ErrTenantBudget = errors.New("jobs: tenant budget exhausted")
	ErrDraining     = errors.New("jobs: daemon draining")
	// ErrDiskPressure sheds submissions while the data filesystem is below
	// Config.MinDiskFree (503 + Retry-After: transient, operator-fixable).
	ErrDiskPressure = errors.New("jobs: insufficient disk space for new jobs")
)

// shedReasons enumerates the admission shed classes exported as
// crawld_shed_total{reason=…}, in label order.
var shedReasons = []string{"budget", "disk", "draining", "queue", "rate"}

// tenant is one tenant's admission state.
type tenant struct {
	reserved int // committed budget: reservations of live jobs + settled charges
	bucket   *deepweb.Bucket
}

// job is the manager's in-memory view of one job: the persisted record
// (guarded by Manager.mu) plus the progress feed (guarded by its own
// mutex — lock ordering is always Manager.mu before job.mu).
type job struct {
	Job
	cancel context.CancelFunc // non-nil while running
	obs    *obs.Obs           // non-nil while running
	evCap  int                // step-buffer bound; <=0 = unbounded
	drops  *atomic.Int64      // manager-wide evicted-unread counter

	mu        sync.Mutex
	cond      *sync.Cond
	steps     []StepEvent
	stepBase  int   // events evicted from the front; steps[0] has seq stepBase+1
	maxRead   int   // highest seq any streamer has read
	feedState State // mirror of Job.State for streamers
	eof       bool  // no further events will arrive (terminal or drained)
}

// StepEvent is one progress event on a job's /events stream.
type StepEvent struct {
	Seq        int     `json:"seq"`
	Query      string  `json:"query"`
	Benefit    float64 `json:"benefit"`
	New        int     `json:"new"`
	Cumulative int     `json:"cum"`
	ResultSize int     `json:"k"`
	Iface      int     `json:"iface,omitempty"`
}

// feedUpdate publishes a state change to the job's streamers.
func (j *job) feedUpdate(st State, eof bool) {
	j.mu.Lock()
	j.feedState = st
	if eof {
		j.eof = true
	}
	j.cond.Broadcast()
	j.mu.Unlock()
}

// appendStep records one progress event and wakes streamers. Called from
// the crawl goroutine on every issued query. At the buffer bound the
// oldest event is evicted (slid out, so memory stays bounded); an
// eviction no streamer had read yet counts as a dropped event.
func (j *job) appendStep(s crawler.Step) {
	j.mu.Lock()
	if j.evCap > 0 && len(j.steps) >= j.evCap {
		if j.stepBase+1 > j.maxRead && j.drops != nil {
			j.drops.Add(1)
		}
		copy(j.steps, j.steps[1:])
		j.steps = j.steps[:len(j.steps)-1]
		j.stepBase++
	}
	j.steps = append(j.steps, StepEvent{
		Seq:        j.stepBase + len(j.steps) + 1,
		Query:      s.Query.Key(),
		Benefit:    s.EstimatedBenefit,
		New:        s.NewlyCovered,
		Cumulative: s.CumulativeCovered,
		ResultSize: s.ResultSize,
		Iface:      s.Iface,
	})
	j.cond.Broadcast()
	j.mu.Unlock()
}

// Manager owns the job registry, the worker pool, and tenant accounting.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listing
	queue    []string // FIFO of queued job IDs
	tenants  map[string]*tenant
	nextSeq  int
	draining bool
	shed     map[string]int64 // admission rejections by shedReasons class
	wake     *sync.Cond       // workers wait here for queue entries

	eventsDropped atomic.Int64 // step events evicted before any read

	wg sync.WaitGroup
}

// Open creates (or reopens) a manager over cfg.Dir, runs the recovery
// scan, and starts the worker pool. Jobs found queued — or running, i.e.
// the previous daemon died mid-crawl — are re-queued in submission order;
// their crawls resume from their WALs, so a restart completes every
// accepted job with results identical to an uninterrupted run.
func Open(cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	if cfg.EventBuffer == 0 {
		cfg.EventBuffer = 8192
	}
	m := &Manager{
		cfg:     cfg,
		jobs:    make(map[string]*job),
		tenants: make(map[string]*tenant),
		shed:    make(map[string]int64),
	}
	m.wake = sync.NewCond(&m.mu)

	ids, err := scanJobs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		rec, err := loadJob(cfg.Dir, id)
		if err != nil {
			return nil, err
		}
		j := &job{Job: *rec, evCap: cfg.EventBuffer, drops: &m.eventsDropped}
		j.cond = sync.NewCond(&j.mu)
		if n := seqOf(id); n >= m.nextSeq {
			m.nextSeq = n + 1
		}
		// A job persisted as running was in flight when the daemon died:
		// its WAL holds everything it absorbed, so it resumes as queued.
		if j.State == StateRunning {
			j.State = StateQueued
			j.Restarts++
			if err := j.save(cfg.Dir); err != nil {
				return nil, err
			}
			fmt.Fprintf(cfg.Log, "jobs: %s interrupted by restart, re-queued (restart #%d)\n", id, j.Restarts)
		}
		j.feedState = j.State
		j.eof = j.State.Terminal()
		m.jobs[id] = j
		m.order = append(m.order, id)
		if j.State == StateQueued {
			m.queue = append(m.queue, id)
		}
		// Rebuild tenant accounting: finished jobs hold their settled
		// charge, live jobs their full reservation.
		t := m.tenantLocked(j.Tenant)
		if j.State.Terminal() {
			t.reserved += j.Charged
		} else {
			t.reserved += j.Spec.budget()
		}
	}
	if n := len(m.queue); n > 0 {
		fmt.Fprintf(cfg.Log, "jobs: recovery scan: %d jobs re-queued\n", n)
	}

	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// tenantLocked returns (creating if needed) the accounting entry. Caller
// holds m.mu (or is still single-goroutine inside Open).
func (m *Manager) tenantLocked(name string) *tenant {
	t := m.tenants[name]
	if t == nil {
		t = &tenant{}
		if m.cfg.TenantRate > 0 {
			burst := m.cfg.TenantBurst
			if burst <= 0 {
				burst = 1
			}
			t.bucket = deepweb.NewBucket(burst, m.cfg.TenantRate)
		}
		m.tenants[name] = t
	}
	return t
}

func seqOf(id string) int {
	var n int
	fmt.Sscanf(id, "j%d", &n)
	return n
}

// Submit validates and admits a job. The spec's budget is reserved
// against the tenant and the job is persisted before Submit returns —
// admission is the commit point: an accepted job survives any crash.
func (m *Manager) Submit(sp Spec) (*Job, error) {
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if (sp.LocalCSV == "") == (sp.LocalPath == "") {
		return nil, errors.New("jobs: exactly one of local_csv and local_path is required")
	}
	if !m.cfg.AllowLocal && sp.usesLocalBackends() {
		return nil, errors.New("jobs: spec reads server-side files (local_path/hidden=); daemon runs without -allow-local-backends")
	}

	// Parse the table and validate the whole request up front, so a
	// malformed submission is a 400, not a later failed job.
	local, err := loadLocal(&sp)
	if err != nil {
		return nil, err
	}
	if err := sp.Request(local, m.cfg.Dir).Validate(); err != nil {
		return nil, err
	}

	// Overload shedding: disk headroom is probed outside the lock (it is
	// a syscall), everything else under it. Each rejection is attributed
	// to its reason for crawld_shed_total.
	diskLow := false
	if m.cfg.MinDiskFree > 0 {
		if free, ok := diskFree(m.cfg.Dir); ok && free < m.cfg.MinDiskFree {
			diskLow = true
		}
	}
	m.mu.Lock()
	if m.draining {
		m.shed["draining"]++
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if diskLow {
		m.shed["disk"]++
		m.mu.Unlock()
		return nil, ErrDiskPressure
	}
	live := 0
	for _, j := range m.jobs {
		if !j.State.Terminal() {
			live++
		}
	}
	if live >= m.cfg.QueueCap {
		m.shed["queue"]++
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	t := m.tenantLocked(sp.Tenant)
	if t.bucket != nil && !t.bucket.Allow() {
		m.shed["rate"]++
		m.mu.Unlock()
		return nil, ErrTenantRate
	}
	if m.cfg.TenantBudget > 0 && t.reserved+sp.budget() > m.cfg.TenantBudget {
		m.shed["budget"]++
		m.mu.Unlock()
		return nil, ErrTenantBudget
	}
	t.reserved += sp.budget()
	id := fmt.Sprintf("j%06d", m.nextSeq)
	m.nextSeq++
	m.mu.Unlock()

	j := &job{Job: Job{
		ID:      id,
		Tenant:  sp.Tenant,
		Spec:    sp,
		State:   StateQueued,
		Created: time.Now().UTC(),
	}, evCap: m.cfg.EventBuffer, drops: &m.eventsDropped}
	j.cond = sync.NewCond(&j.mu)
	j.feedState = StateQueued

	// Persist the job before acknowledging it: directory, input table,
	// record. From here a crash cannot lose the job.
	dir := jobDir(m.cfg.Dir, id)
	persist := func() error {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if sp.LocalCSV != "" {
			if err := os.WriteFile(filepath.Join(dir, "local.csv"), []byte(sp.LocalCSV), 0o644); err != nil {
				return err
			}
		}
		return j.save(m.cfg.Dir)
	}
	if err := persist(); err != nil {
		m.mu.Lock()
		t.reserved -= sp.budget()
		m.mu.Unlock()
		return nil, err
	}

	m.mu.Lock()
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.queue = append(m.queue, id)
	// Copy the record before a worker can claim the job: once it is on
	// the queue its state belongs to the scheduler.
	rec := j.Job
	m.wake.Signal()
	m.mu.Unlock()
	fmt.Fprintf(m.cfg.Log, "jobs: %s admitted (tenant %s, budget %d)\n", id, sp.Tenant, sp.budget())
	return &rec, nil
}

// loadLocal materializes the job's local table from its spec.
func loadLocal(sp *Spec) (*relational.Table, error) {
	if sp.LocalPath != "" {
		return relational.ReadFile("local", sp.LocalPath)
	}
	t, err := relational.ReadCSV("local", strings.NewReader(sp.LocalCSV))
	if err != nil {
		return nil, fmt.Errorf("jobs: parsing local_csv: %w", err)
	}
	return t, nil
}

// Get returns a copy of the job record, or nil.
func (m *Manager) Get(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil
	}
	rec := j.Job
	return &rec
}

// List returns copies of every job record in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		rec := m.jobs[id].Job
		out = append(out, &rec)
	}
	return out
}

// ResultPath returns the enriched-output path for a done job, or "".
func (m *Manager) ResultPath(id string) string {
	if j := m.Get(id); j != nil && j.State == StateDone {
		return filepath.Join(jobDir(m.cfg.Dir, id), "out.csv")
	}
	return ""
}

// CheckpointPath returns the job's checkpoint path (it exists once the
// crawl has compacted at least once), or "".
func (m *Manager) CheckpointPath(id string) string {
	if j := m.Get(id); j != nil {
		return filepath.Join(jobDir(m.cfg.Dir, id), "cp.bin")
	}
	return ""
}

// Cancel cancels a job: queued jobs transition to canceled immediately,
// running jobs get their context cancelled — the engine drains in-flight
// queries and checkpoints the partial state before the worker settles the
// job as canceled. Returns false for unknown or already-terminal jobs.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil || j.State.Terminal() {
		m.mu.Unlock()
		return false
	}
	if j.State == StateQueued {
		m.dequeueLocked(id)
		m.finishLocked(j, StateCanceled, "", nil)
		m.mu.Unlock()
		return true
	}
	cancel := j.cancel
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// dequeueLocked removes id from the FIFO. Caller holds m.mu.
func (m *Manager) dequeueLocked(id string) {
	for i, q := range m.queue {
		if q == id {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return
		}
	}
}

// Drain stops the manager gracefully: no new submissions are admitted,
// running crawls are interrupted at their next round boundary (in-flight
// queries drain and partial state is checkpointed), and interrupted jobs
// are persisted back to queued so the next daemon start resumes them.
// Blocks until every worker has parked. No accepted job is lost.
func (m *Manager) Drain() {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.draining = true
	for _, j := range m.jobs {
		if j.cancel != nil {
			j.cancel()
		}
		// Unblock streamers of jobs that will not produce further events
		// in this process (running jobs settle through their worker).
		if j.State == StateQueued {
			j.feedUpdate(StateQueued, true)
		}
	}
	m.wake.Broadcast()
	queued := len(m.queue)
	m.mu.Unlock()
	m.wg.Wait()
	fmt.Fprintf(m.cfg.Log, "jobs: drained (%d jobs held for next start)\n", queued)
}

// Draining reports whether Drain has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// RetryAfter is the transient-rejection hint the HTTP layer advertises.
func (m *Manager) RetryAfter() time.Duration { return m.cfg.RetryAfter }

// TenantReserved returns a tenant's committed budget (live reservations
// plus settled charges).
func (m *Manager) TenantReserved(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t := m.tenants[name]; t != nil {
		return t.reserved
	}
	return 0
}

// MetricsSnapshot renders the manager's state for /debug/vars: state
// gauges, per-tenant accounting, and each running job's compact crawl
// metrics.
func (m *Manager) MetricsSnapshot() map[string]any {
	m.mu.Lock()
	defer m.mu.Unlock()
	counts := map[State]int{}
	jobsVar := map[string]any{}
	for _, id := range m.order {
		j := m.jobs[id]
		counts[j.State]++
		if j.State == StateRunning && j.obs != nil {
			jobsVar[id] = j.obs.SnapshotBrief()
		}
	}
	tenants := map[string]any{}
	for name, t := range m.tenants {
		tenants[name] = map[string]any{"reserved": t.reserved, "cap": m.cfg.TenantBudget}
	}
	shed := map[string]int64{}
	for _, r := range shedReasons {
		shed[r] = m.shed[r]
	}
	return map[string]any{
		"queued":         counts[StateQueued],
		"running":        counts[StateRunning],
		"done":           counts[StateDone],
		"failed":         counts[StateFailed],
		"canceled":       counts[StateCanceled],
		"draining":       m.draining,
		"shed":           shed,
		"events_dropped": m.eventsDropped.Load(),
		"tenants":        tenants,
		"jobs":           jobsVar,
	}
}

// worker is the scheduler loop: pop the oldest queued job, run its crawl,
// settle it, repeat. Parks on m.wake when the queue is empty; exits when
// the manager drains.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.draining {
			m.wake.Wait()
		}
		if m.draining {
			m.mu.Unlock()
			return
		}
		id := m.queue[0]
		m.queue = m.queue[1:]
		j := m.jobs[id]
		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		j.obs = obs.New()
		now := time.Now().UTC()
		j.State = StateRunning
		j.Started = &now
		saveErr := j.save(m.cfg.Dir)
		if saveErr != nil {
			// The data dir failed us; fail the job rather than crash the
			// scheduler.
			m.finishLocked(j, StateFailed, saveErr.Error(), nil)
			m.mu.Unlock()
			cancel()
			continue
		}
		m.mu.Unlock()
		j.feedUpdate(StateRunning, false)

		fmt.Fprintf(m.cfg.Log, "jobs: %s running\n", id)
		out, err := m.crawl(j, ctx)
		cancel()

		m.mu.Lock()
		switch {
		case err != nil:
			m.finishLocked(j, StateFailed, err.Error(), nil)
		case out.Interrupted && m.draining:
			// Interrupted by drain: the WAL holds everything absorbed, so
			// the job goes back to queued and the next start resumes it.
			j.State = StateQueued
			j.cancel = nil
			j.obs = nil
			m.queue = append(m.queue, id)
			if err := j.save(m.cfg.Dir); err != nil {
				fmt.Fprintf(m.cfg.Log, "jobs: %s re-queue save failed: %v\n", id, err)
			}
			fmt.Fprintf(m.cfg.Log, "jobs: %s interrupted by drain, re-queued\n", id)
			j.feedUpdate(StateQueued, true)
		case out.Interrupted:
			// Interrupted by a user cancel: settle as canceled; the
			// partial enrichment and checkpoint stay on disk.
			m.finishLocked(j, StateCanceled, "", out)
		default:
			m.finishLocked(j, StateDone, "", out)
		}
		m.mu.Unlock()
	}
}

// crawl runs the engine for one job: local table from the job dir, the
// job's own checkpoint/WAL pair, progress fanned into the step feed.
func (m *Manager) crawl(j *job, ctx context.Context) (*engine.Outcome, error) {
	dir := jobDir(m.cfg.Dir, j.ID)
	sp := &j.Spec
	var (
		local *relational.Table
		err   error
	)
	if sp.LocalPath != "" {
		local, err = relational.ReadFile("local", sp.LocalPath)
	} else {
		local, err = relational.ReadFile("local", filepath.Join(dir, "local.csv"))
	}
	if err != nil {
		return nil, err
	}
	req := sp.Request(local, dir)
	req.Context = ctx
	req.Obs = j.obs
	req.CrashPoint = m.cfg.CrashPoint
	req.OnStep = j.appendStep
	out, err := engine.Run(req)
	if err != nil {
		return nil, err
	}
	// Persist the enriched table before the job is marked done, so a
	// crash between the two at worst re-derives it on resume.
	if err := durable.WriteFileAtomic(filepath.Join(dir, "out.csv"), func(w io.Writer) error {
		return out.Local.WriteCSV(w)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// finishLocked settles a job into a terminal state and releases the
// unspent part of its tenant reservation. Caller holds m.mu.
func (m *Manager) finishLocked(j *job, st State, errMsg string, out *engine.Outcome) {
	now := time.Now().UTC()
	j.State = st
	j.Error = errMsg
	j.Finished = &now
	j.cancel = nil
	j.obs = nil
	if out != nil && out.Report != nil {
		// Charged is the lifetime query spend (cumulative across daemon
		// restarts) — the tenant settlement measure.
		j.Charged = out.Report.QueriesIssued
		j.Enriched = out.Report.Enriched
		j.LocalLen = out.Local.Len()
		j.Coverage = out.Report.Coverage
	}
	if t := m.tenants[j.Tenant]; t != nil {
		t.reserved -= j.Spec.budget() - j.Charged
	}
	if err := j.save(m.cfg.Dir); err != nil {
		// The settle record could not be made durable. A job reported done
		// on a record a restart cannot read would silently re-run and
		// double-charge, so escalate: the job fails loudly instead.
		if st == StateDone {
			j.State = StateFailed
			j.Error = fmt.Sprintf("jobs: persisting settled state: %v", err)
			if err2 := j.save(m.cfg.Dir); err2 != nil {
				fmt.Fprintf(m.cfg.Log, "jobs: %s FAILURE RECORD ALSO UNWRITABLE: %v\n", j.ID, err2)
			}
		}
		fmt.Fprintf(m.cfg.Log, "jobs: %s settle save failed (state %s): %v\n", j.ID, j.State, err)
	}
	fmt.Fprintf(m.cfg.Log, "jobs: %s %s (charged %d)\n", j.ID, j.State, j.Charged)
	j.feedUpdate(j.State, true)
}

// Steps returns the job's progress events from seq (1-based, inclusive)
// on, blocking until at least one newer event exists or no further
// events will arrive in this process (terminal state, or re-queued by a
// drain). The returned state is the job's streamer-visible state at read
// time; ok is false for unknown jobs.
func (m *Manager) Steps(id string, from int) (evs []StepEvent, st State, ok bool) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return nil, "", false
	}
	if from < 1 {
		from = 1
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.stepBase+len(j.steps) < from && !j.eof {
		j.cond.Wait()
	}
	// Events before stepBase were evicted by the buffer bound; a reader
	// asking for them resumes at the oldest retained event (the gap shows
	// up in the seq numbers and in crawld_events_dropped_total).
	start := from - 1 - j.stepBase
	if start < 0 {
		start = 0
	}
	if start > len(j.steps) {
		start = len(j.steps)
	}
	evs = make([]StepEvent, len(j.steps)-start)
	copy(evs, j.steps[start:])
	if last := j.stepBase + len(j.steps); last > j.maxRead {
		j.maxRead = last
	}
	return evs, j.feedState, true
}

// ShedCounts returns the admission rejections recorded so far, keyed by
// shed reason (every reason present, zero-valued when never hit).
func (m *Manager) ShedCounts() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(shedReasons))
	for _, r := range shedReasons {
		out[r] = m.shed[r]
	}
	return out
}

// EventsDropped returns the step events evicted from bounded job feeds
// before any streamer read them.
func (m *Manager) EventsDropped() int64 { return m.eventsDropped.Load() }
