package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestAdmissionSaturation floods one tenant past its queue limit and
// checks the daemon's overload behaviour: excess submissions shed with
// 429 + Retry-After, while every admitted job still completes with
// digests byte-identical to an offline run of the same spec. The specs
// carry 20% fault injection with retry-with-degradation, so shedding is
// proven not to interact with the chaos path either.
func TestAdmissionSaturation(t *testing.T) {
	dir := t.TempDir()
	retryAfter := 3 * time.Second
	s, err := New(Config{
		DataDir: dir,
		Limits: Limits{
			MaxRunning:       1,
			TenantMaxRunning: 1,
			TenantMaxQueued:  2,
			RetryAfter:       retryAfter,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The scheduler starts only after the burst: admission decisions are
	// then a pure function of the queue limits, not of how fast jobs
	// happen to drain.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mkSpec := func(i int) JobSpec {
		return JobSpec{
			Tenant:      "flood",
			Name:        fmt.Sprintf("sat-%d", i),
			Contracts:   5,
			Seed:        100 + int64(i),
			Iterations:  40,
			FaultRate:   0.2,
			MaxAttempts: 3,
		}
	}

	// Burst submissions back-to-back: with a queue depth of 2 and one
	// running slot, most of the burst must shed.
	const burst = 10
	admitted := map[int]JobSpec{} // job ID -> spec
	shed := 0
	for i := 0; i < burst; i++ {
		spec := mkSpec(i)
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var out map[string]int
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			admitted[out["id"]] = spec
		case http.StatusTooManyRequests:
			shed++
			if got := resp.Header.Get("Retry-After"); got != "3" {
				t.Errorf("Retry-After = %q, want \"3\"", got)
			}
		default:
			t.Fatalf("submission %d: unexpected status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if shed == 0 {
		t.Fatal("no submission was shed; saturation never engaged")
	}
	if len(admitted) == 0 {
		t.Fatal("every submission was shed; admission control over-rejects")
	}
	if len(admitted)+shed != burst {
		t.Fatalf("admitted %d + shed %d != %d", len(admitted), shed, burst)
	}
	// With no scheduler draining, exactly TenantMaxQueued jobs fit.
	if len(admitted) != 2 {
		t.Fatalf("admitted %d jobs, want exactly the queue depth (2)", len(admitted))
	}

	// Now run the admitted jobs to completion.
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx) }()

	// Every admitted job completes, and shedding perturbed none of them:
	// digests equal an offline reference run of the identical spec
	// (fault injection is a pure function of the spec's seed, so the
	// reference reproduces the faulted campaign exactly).
	for id, spec := range admitted {
		st := waitFinished(t, ts.URL, id, 120*time.Second)
		if st.Status != StatusCompleted {
			t.Fatalf("admitted job %d finished as %q (err %q)", id, st.Status, st.Err)
		}
		ref, err := RunSpec(context.Background(), spec, "", false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.FindingsDigest != ref.FindingsDigest() {
			t.Errorf("job %d (%s): digest diverged under saturation:\n got: %q\nwant: %q",
				id, spec.Name, st.FindingsDigest, ref.FindingsDigest())
		}
	}

	// /stats accounts for the shed submissions.
	var stats StatsReport
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Shed != int64(shed) {
		t.Errorf("stats.Shed = %d, want %d", stats.Shed, shed)
	}

	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestAdmissionTenantIsolation: one tenant saturating its queue must not
// block another tenant's admission.
func TestAdmissionTenantIsolation(t *testing.T) {
	s, err := New(Config{
		DataDir: t.TempDir(),
		Limits:  Limits{MaxRunning: 2, TenantMaxRunning: 1, TenantMaxQueued: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// No scheduler: everything stays queued, so queue occupancy is exact.
	defer s.reg.close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(tenant string) int {
		b, _ := json.Marshal(JobSpec{Tenant: tenant, Contracts: 2, Seed: 1})
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("a"); got != http.StatusAccepted {
		t.Fatalf("tenant a first submit = %d", got)
	}
	if got := post("a"); got != http.StatusTooManyRequests {
		t.Fatalf("tenant a second submit = %d, want 429", got)
	}
	if got := post("b"); got != http.StatusAccepted {
		t.Fatalf("tenant b submit = %d, want 202 (a's saturation must not shed b)", got)
	}
}
