package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/serve"
)

// Daemon-mix shape: two tenants, each a closed loop over one connection
// that submits a small wild spec and polls it to completion.
const (
	Tenants         = 2
	daemonContracts = 8
	pollInterval    = 5 * time.Millisecond
	setupProbes     = 11
	// MinDaemonJobs keeps a timed run going until its job p90 has at
	// least ten samples beyond it.
	MinDaemonJobs    = 100
	scratchDirParent = ".bench_build"
)

// DaemonOptions sizes a daemon-mix run.
type DaemonOptions struct {
	Seed       int64
	Seconds    float64
	Contracts  int // contracts per job (0 = 8)
	Iterations int // per-contract fuzzing budget (0 = the paper's 240)
	MinJobs    int // jobs completed even past the deadline (0 = 1)
	// Spans, when non-nil, receives the HTTP-side spans of every job.
	Spans *Recorder
}

// SpecSequence yields the daemon-mix spec seeds: even positions draw a
// new spec seed, odd positions repeat a uniformly chosen earlier one, so
// half the submissions repeat a spec whatever the run length. A pure
// function of the workload seed.
type SpecSequence struct {
	seed  int64
	rng   *rand.Rand
	fresh []int64
	n     int
}

// NewSpecSequence starts the sequence for a workload seed.
func NewSpecSequence(seed int64) *SpecSequence {
	return &SpecSequence{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the spec seed of the next position.
func (s *SpecSequence) Next() int64 {
	defer func() { s.n++ }()
	if s.n%2 == 0 {
		v := s.seed*1000 + int64(len(s.fresh)) + 1
		s.fresh = append(s.fresh, v)
		return v
	}
	return s.fresh[s.rng.Intn(len(s.fresh))]
}

// Spec is a daemon-mix job's wire spec: library defaults apart from one
// worker per job and the shared memo scope the daemon exists to serve. No
// digest-neutral engine toggle is set.
func Spec(tenant string, specSeed int64, contracts, iterations int) serve.JobSpec {
	if contracts <= 0 {
		contracts = daemonContracts
	}
	return serve.JobSpec{
		Tenant:     tenant,
		Contracts:  contracts,
		Seed:       specSeed,
		Iterations: iterations,
		Workers:    1,
		Memo:       "shared",
	}
}

// Daemon is an in-process wasai-serve on a loopback listener.
type Daemon struct {
	URL    string
	srv    *serve.Server
	hs     *http.Server
	ctx    context.Context
	cancel context.CancelFunc
	held   bool
	ran    chan error
	served chan error
}

// StartDaemon opens a server over dataDir/storeDir, serves its handler on
// 127.0.0.1, and starts its scheduler unless hold is set (a held daemon
// accepts submissions but runs nothing until Stop).
func StartDaemon(dataDir, storeDir string, hold bool) (*Daemon, error) {
	srv, err := serve.New(serve.Config{DataDir: dataDir, StoreDir: storeDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{
		URL:    "http://" + ln.Addr().String(),
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		ctx:    ctx,
		cancel: cancel,
		held:   hold,
		ran:    make(chan error, 1),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	if !hold {
		go func() { d.ran <- srv.Run(ctx) }()
	}
	return d, nil
}

// Stop shuts the HTTP side down, drains the scheduler and waits for both.
func (d *Daemon) Stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.cancel()
	var rerr error
	if d.held {
		// The scheduler never started: running it on the cancelled
		// context drains at once and closes the registry.
		rerr = d.srv.Run(d.ctx)
	} else {
		rerr = <-d.ran
	}
	if err == nil {
		err = rerr
	}
	return err
}

// Client is one tenant's connection to the daemon.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client holding at most one connection.
func NewClient(base string) *Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &Client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// Close drops the client's idle connection.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Submit posts a spec and returns the job id and HTTP status.
func (c *Client) Submit(spec serve.JobSpec) (int, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return 0, resp.StatusCode, nil
	}
	var out struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, resp.StatusCode, err
	}
	return out.ID, resp.StatusCode, nil
}

// Job fetches one job's state.
func (c *Client) Job(id int) (serve.JobState, error) {
	var j serve.JobState
	err := c.get(fmt.Sprintf("/jobs/%d", id), &j)
	return j, err
}

// Stats fetches /stats.
func (c *Client) Stats() (serve.StatsReport, error) {
	var s serve.StatsReport
	err := c.get("/stats", &s)
	return s, err
}

func (c *Client) get(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// JobTiming is one daemon job as seen from the client.
type JobTiming struct {
	Submit  time.Duration // POST until 202
	Queued  time.Duration // 202 until the first poll that saw it running
	Run     time.Duration // from there until the poll that saw it finish
	Latency time.Duration // POST until the poll that saw it finish
}

// DaemonRun is the outcome of a daemon-mix run.
type DaemonRun struct {
	Jobs      []JobTiming
	Setups    []time.Duration
	Wall      time.Duration
	Contracts int
	Attempted int
	Failed    int
	Repeats   int // completed jobs whose spec had run before
	Runtime   Runtime
	LiveHeap  float64
	Stats     serve.StatsReport
}

// ScratchDir makes a fresh directory for daemon state inside the
// checkout's build directory.
func ScratchDir(pattern string) (string, error) {
	if err := os.MkdirAll(scratchDirParent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratchDirParent, pattern)
}

// probeSetup times daemon start-up until its first 202: serve.New with a
// fresh registry and store, the loopback listener, and one submission.
// The probe daemon is held (its scheduler never runs the job) and stopped.
func probeSetup(dir string, i int) (time.Duration, error) {
	data := filepath.Join(dir, fmt.Sprintf("probe%d-data", i))
	store := filepath.Join(dir, fmt.Sprintf("probe%d-store", i))
	start := time.Now()
	d, err := StartDaemon(data, store, true)
	if err != nil {
		return 0, err
	}
	c := NewClient(d.URL)
	_, status, err := c.Submit(Spec("setup", 1, 1, 1))
	setup := time.Since(start)
	c.Close()
	if serr := d.Stop(); err == nil {
		err = serr
	}
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("setup probe: status %d", status)
	}
	return setup, err
}

// RunDaemonMix runs the closed-loop two-tenant mix against an in-process
// daemon with a durable store until the deadline, then lets in-flight
// jobs finish. Every repeated spec must return the findings digest its
// first run returned; a mismatch, a failed job or a non-202 submission
// counts as a failed operation.
func RunDaemonMix(o DaemonOptions) (run *DaemonRun, err error) {
	dir, err := ScratchDir("daemon-*")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil && rerr != nil {
			err = rerr
		}
	}()
	run = &DaemonRun{}
	for i := 0; i < setupProbes; i++ {
		s, err := probeSetup(dir, i)
		if err != nil {
			return nil, err
		}
		run.Setups = append(run.Setups, s)
	}

	d, err := StartDaemon(filepath.Join(dir, "data"), filepath.Join(dir, "store"), false)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := d.Stop(); err == nil && serr != nil {
			err = serr
		}
	}()

	contracts := o.Contracts
	if contracts <= 0 {
		contracts = daemonContracts
	}
	seq := NewSpecSequence(o.Seed)
	var (
		mu       sync.Mutex
		next     int
		digests  = map[int64]string{}
		firstErr error
	)
	deadline := time.Duration(o.Seconds * float64(time.Second))
	minJobs := o.MinJobs
	if minJobs <= 0 {
		minJobs = 1
	}
	before := ReadRuntime()
	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < Tenants; t++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			c := NewClient(d.URL)
			defer c.Close()
			for {
				mu.Lock()
				stop := firstErr != nil ||
					(next >= minJobs && time.Since(start) >= deadline)
				next++
				specSeed := seq.Next()
				mu.Unlock()
				if stop {
					return
				}
				timing, state, ok, err := runJob(c, Spec(tenant, specSeed, contracts, o.Iterations), o.Spans)
				mu.Lock()
				run.Attempted++
				switch {
				case err != nil:
					if firstErr == nil {
						firstErr = err
					}
				case !ok:
					run.Failed++
				default:
					if prev, seen := digests[specSeed]; !seen {
						digests[specSeed] = state.FindingsDigest
					} else {
						run.Repeats++
						if prev != state.FindingsDigest {
							run.Failed++
							break
						}
					}
					run.Jobs = append(run.Jobs, timing)
					run.Contracts += contracts
				}
				mu.Unlock()
			}
		}(fmt.Sprintf("tenant%d", t))
	}
	wg.Wait()
	run.Wall = time.Since(start)
	run.Runtime = ReadRuntime().Sub(before)
	if firstErr != nil {
		return nil, firstErr
	}
	c := NewClient(d.URL)
	run.Stats, err = c.Stats()
	c.Close()
	if err != nil {
		return nil, err
	}
	run.LiveHeap = LiveHeapMB() // the daemon is still up
	return run, nil
}

// runJob submits one spec and polls it to a terminal state. ok is false
// for a refused submission (429/5xx) or a job that did not complete
// every contract.
func runJob(c *Client, spec serve.JobSpec, spans *Recorder) (JobTiming, serve.JobState, bool, error) {
	var t JobTiming
	start := time.Now()
	id, status, err := c.Submit(spec)
	if err != nil {
		return t, serve.JobState{}, false, err
	}
	accepted := time.Now()
	t.Submit = accepted.Sub(start)
	if status != http.StatusAccepted {
		return t, serve.JobState{}, false, nil
	}
	running := time.Time{}
	for {
		time.Sleep(pollInterval)
		j, err := c.Job(id)
		if err != nil {
			return t, j, false, err
		}
		now := time.Now()
		if running.IsZero() && j.Status != serve.StatusQueued {
			running = now
		}
		if !j.Finished() {
			continue
		}
		t.Queued = running.Sub(accepted)
		t.Run = now.Sub(running)
		t.Latency = now.Sub(start)
		if spans != nil {
			trace := spans.NewTrace()
			root := spans.Add(trace, "serve.job", start, now, 0)
			spans.Add(trace, "serve.submit", start, accepted, root)
			spans.Add(trace, "serve.queued", accepted, running, root)
			spans.Add(trace, "serve.run", running, now, root)
		}
		ok := j.Status == serve.StatusCompleted && j.Failed == 0 && j.Completed == spec.Contracts
		return t, j, ok, nil
	}
}

// Report turns a daemon-mix run into the end-to-end metrics.
func (r *DaemonRun) Report() *Result {
	lat := make([]time.Duration, len(r.Jobs))
	for i, j := range r.Jobs {
		lat[i] = j.Latency
	}
	ms := Millis(lat)
	setups := make([]float64, len(r.Setups))
	for i, s := range r.Setups {
		setups[i] = s.Seconds()
	}
	res := &Result{Attempted: r.Attempted, Failed: r.Failed, Correct: r.Failed == 0}
	res.Set("contracts_per_s", float64(r.Contracts)/r.Wall.Seconds(), "1/s")
	res.Set("job_p50_ms", Quantile(ms, 0.5), "ms")
	res.Set("job_p90_ms", Quantile(ms, 0.9), "ms")
	res.Set("alloc_mb_per_contract", r.Runtime.AllocBytes/1e6/float64(max(r.Contracts, 1)), "MB")
	res.Set("live_heap_mb", r.LiveHeap, "MB")
	res.Set("setup_s", Quantile(setups, 0.5), "s")
	return res
}
