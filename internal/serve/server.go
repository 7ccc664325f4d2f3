// Package serve is the crash-safe analysis daemon: a long-running HTTP
// service that accepts WASAI campaign jobs, runs them on the campaign
// engine, and survives being killed at any instant. Three layers give it
// that property:
//
//   - a WAL-backed job registry (state.go): accepted jobs are fsynced
//     before the 202 response, finished jobs before they are reported, so
//     a SIGKILL can lose neither — a restarted daemon re-queues exactly
//     the interrupted jobs;
//   - per-job campaign journals: each running job checkpoints completed
//     contracts to its own crash-safe journal, so a resumed job replays
//     finished work and re-fuzzes only what was in flight — its final
//     digests are byte-identical to an uninterrupted run's;
//   - a durable memo store (internal/store, optional): solver verdicts
//     persist across restarts and across processes, so the resumed
//     daemon is also warm.
//
// Admission control is multi-tenant: per-tenant queue-depth and
// concurrency limits shed excess load with 429 + Retry-After while
// admitted jobs proceed untouched. A cancelled run context drains
// gracefully: no new admissions (503), running jobs finish, then the
// registry closes.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/memo"
	"repro/internal/store"
	"repro/internal/wal"
)

// Limits is the admission-control policy.
type Limits struct {
	// MaxRunning caps concurrently running jobs across all tenants
	// (0 = 2). Each job is itself a parallel campaign, so this stays
	// small.
	MaxRunning int
	// TenantMaxRunning caps one tenant's concurrent jobs (0 = 1).
	TenantMaxRunning int
	// TenantMaxQueued caps one tenant's waiting jobs; beyond it the
	// daemon sheds with 429 (0 = 8).
	TenantMaxQueued int
	// RetryAfter is the hint returned with 429 responses (0 = 5s).
	RetryAfter time.Duration
}

func (l Limits) maxRunning() int {
	if l.MaxRunning > 0 {
		return l.MaxRunning
	}
	return 2
}

func (l Limits) tenantMaxRunning() int {
	if l.TenantMaxRunning > 0 {
		return l.TenantMaxRunning
	}
	return 1
}

func (l Limits) tenantMaxQueued() int {
	if l.TenantMaxQueued > 0 {
		return l.TenantMaxQueued
	}
	return 8
}

func (l Limits) retryAfter() time.Duration {
	if l.RetryAfter > 0 {
		return l.RetryAfter
	}
	return 5 * time.Second
}

// Config configures a Server.
type Config struct {
	// DataDir holds the registry WAL and the per-job campaign journals.
	DataDir string
	// Limits is the admission policy.
	Limits Limits
	// StoreDir, when non-empty, attaches a durable memo store (shared
	// with any other process pointed at the same directory).
	StoreDir string
	// StoreMaxBytes is the store's eviction budget (0 = store default).
	StoreMaxBytes int64
	// JournalSync is the per-job campaign journals' fsync policy
	// (campaign.Config.JournalSync; 0 = the WAL default).
	JournalSync int
}

// Server is the daemon. Create with New, serve Handler over HTTP, and
// call Run with the process's lifetime context; cancelling that context
// drains and shuts down.
type Server struct {
	cfg   Config
	reg   *registry
	cache *memo.Cache  // the daemon's solver cache, handed to every job
	disk  *store.Store // nil unless StoreDir is set

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []int          // queued job IDs, FIFO
	queued   map[string]int // per-tenant queued counts
	running  map[string]int // per-tenant running counts
	runTotal int
	draining bool

	shed atomic.Int64 // submissions rejected with 429
}

// New opens the registry (recovering any interrupted jobs into the
// queue) and the optional durable store.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: Config.DataDir is required") //wasai:rawerr config validation
	}
	reg, pending, err := openRegistry(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "jobs"), 0o755); err != nil {
		reg.close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		cache:   memo.New(),
		queued:  map[string]int{},
		running: map[string]int{},
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.StoreDir != "" {
		d, err := store.OpenShared(store.Options{Dir: cfg.StoreDir, MaxBytes: cfg.StoreMaxBytes})
		if err != nil {
			reg.close()
			return nil, err
		}
		s.disk = d
		s.cache.AttachDisk(d)
	}
	for _, id := range pending {
		j, ok := reg.get(id)
		if !ok {
			continue
		}
		s.pending = append(s.pending, id)
		s.queued[j.Spec.Tenant]++
	}
	return s, nil
}

// Run is the scheduler loop: it admits queued jobs into free slots until
// ctx is cancelled, then drains running jobs and closes the registry.
// Call it once; it returns after the drain completes.
func (s *Server) Run(ctx context.Context) error {
	stop := make(chan struct{})
	go func() {
		<-ctx.Done()
		s.mu.Lock()
		s.draining = true
		s.cond.Broadcast()
		s.mu.Unlock()
		close(stop)
	}()

	var jobs sync.WaitGroup
	for {
		s.mu.Lock()
		id, tenant, ok := s.nextLocked()
		for !ok && !s.draining {
			s.cond.Wait()
			id, tenant, ok = s.nextLocked()
		}
		if !ok { // draining with nothing runnable
			s.mu.Unlock()
			break
		}
		s.running[tenant]++
		s.runTotal++
		s.mu.Unlock()

		jobs.Add(1)
		go func(id int, tenant string) {
			defer jobs.Done()
			s.runOne(ctx, id)
			s.mu.Lock()
			s.running[tenant]--
			s.runTotal--
			s.cond.Broadcast()
			s.mu.Unlock()
		}(id, tenant)
	}
	jobs.Wait() // graceful drain: in-flight jobs checkpoint to completion or die with ctx
	<-stop
	return s.reg.close()
}

// nextLocked picks the first queued job whose tenant and the global pool
// both have a free slot. FIFO within the admissible set.
func (s *Server) nextLocked() (int, string, bool) {
	if s.draining || s.runTotal >= s.cfg.Limits.maxRunning() {
		return 0, "", false
	}
	for i := 0; i < len(s.pending); {
		id := s.pending[i]
		j, ok := s.reg.get(id)
		if !ok {
			// Stale entry (rotation only drops finished jobs, so this
			// should be unreachable): remove it and keep scanning —
			// returning here would park the caller in cond.Wait with
			// runnable jobs still behind the stale one.
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			continue
		}
		if s.running[j.Spec.Tenant] >= s.cfg.Limits.tenantMaxRunning() {
			i++
			continue
		}
		s.pending = append(s.pending[:i], s.pending[i+1:]...)
		s.queued[j.Spec.Tenant]--
		return id, j.Spec.Tenant, true
	}
	return 0, "", false
}

// journalPath is job id's campaign checkpoint file.
func (s *Server) journalPath(id int) string {
	return filepath.Join(s.cfg.DataDir, "jobs", fmt.Sprintf("%d.wal", id))
}

// runOne executes one job: resume-or-start its campaign journal, run the
// spec, durably record the outcome. The job context is the daemon's run
// context — a drain lets the campaign finish; a killed process leaves
// the journal, which is the point.
func (s *Server) runOne(ctx context.Context, id int) {
	j, ok := s.reg.get(id)
	if !ok {
		return
	}
	s.reg.markRunning(id)
	// Always resume: a fresh job has no journal file (opened as fresh),
	// a restarted one replays its completed contracts.
	cfg := CampaignConfig(j.Spec, s.journalPath(id), true, s.cache)
	cfg.JournalSync = s.cfg.JournalSync
	jobs, err := BuildJobs(j.Spec)
	var rec stateRecord
	if err == nil {
		var rep *campaign.Report
		rep, err = campaign.Run(ctx, jobs, cfg)
		if err == nil {
			rec = stateRecord{
				FindingsDigest: rep.FindingsDigest(),
				StateDigest:    rep.StateDigest(),
				Completed:      rep.Completed,
				Failed:         rep.Failed,
				Flagged:        rep.Flagged,
				Replayed:       rep.Replayed,
			}
		}
	}
	if err != nil {
		if ctx.Err() != nil {
			// Killed by the drain, not by the job: leave it queued-on-disk
			// so the next daemon run resumes it. No done record.
			return
		}
		rec = stateRecord{Err: err.Error()}
	}
	s.reg.finish(id, rec)
}

// StatsReport is the /stats payload.
type StatsReport struct {
	Queued    int  `json:"queued"`
	Running   int  `json:"running"`
	Completed int  `json:"completed"`
	Failed    int  `json:"failed"`
	Draining  bool `json:"draining"`
	// Shed counts submissions rejected by admission control (429).
	Shed int64 `json:"shed"`
	// Memo is the process-wide cache's counters (solver hits saved, disk
	// tier traffic); Store the durable store's own view; Wal the registry
	// WAL's.
	Memo  memo.Stats   `json:"memo"`
	Store *store.Stats `json:"store,omitempty"`
	Wal   wal.Stats    `json:"wal"`
}

// Handler returns the daemon's HTTP API:
//
//	POST /jobs        submit a JobSpec  → 202 {"id": n}
//	GET  /jobs        list job states
//	GET  /jobs/{id}   one job's state (digests once finished)
//	GET  /healthz     200 while the process lives
//	GET  /readyz      200 while accepting, 503 while draining
//	GET  /stats       StatsReport
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// HTTP timeouts of NewHTTPServer. A request's body is already capped at
// maxSpecBytes; these bound how long a client may take to send its
// headers and how long an idle keep-alive connection may hold a socket.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer wraps h (normally Handler()) in the daemon's http.Server,
// with fixed header-read and idle timeouts so a slow or silent client
// cannot pin a connection forever.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.reg.list())
	case http.MethodPost:
		s.handleSubmit(w, r)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&spec); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad request: %v", err), status)
		return
	}
	if err := spec.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if s.queued[spec.Tenant] >= s.cfg.Limits.tenantMaxQueued() {
		s.shed.Add(1)
		s.mu.Unlock()
		// Admission control: shed, don't queue unboundedly. Retry-After
		// is a static policy hint, not a measurement.
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.Limits.retryAfter()/time.Second)))
		http.Error(w, fmt.Sprintf("tenant %q queue full", spec.Tenant), http.StatusTooManyRequests)
		return
	}
	// Reserve the queue slot before the (synced) WAL append so a burst
	// cannot overshoot the limit, then enqueue.
	s.queued[spec.Tenant]++
	s.mu.Unlock()

	id, err := s.reg.submit(spec)
	if err != nil {
		s.mu.Lock()
		s.queued[spec.Tenant]--
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.mu.Lock()
	s.pending = append(s.pending, id)
	s.cond.Broadcast()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, map[string]int{"id": id})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		http.Error(w, "bad job id", http.StatusBadRequest)
		return
	}
	j, ok := s.reg.get(id)
	if !ok {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	queued, running, completed, failed := s.reg.counts()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	rep := StatsReport{
		Queued:    queued,
		Running:   running,
		Completed: completed,
		Failed:    failed,
		Draining:  draining,
		Shed:      s.shed.Load(),
		Memo:      s.cache.Snapshot(),
		Wal:       s.reg.walStats(),
	}
	if s.disk != nil {
		ds := s.disk.Stats()
		rep.Store = &ds
	}
	writeJSON(w, http.StatusOK, rep)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
