package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/wal"
)

// legacySpec is a JobSpec as clients (and registry WALs) wrote it while
// the decoded-IR engine was an opt-in toggle: it carries the retired
// "fastvm" field. The engine is now unconditional, and the spec decoder
// ignores unknown fields, so the job must run as if the field were absent.
const legacySpec = `{"tenant":"t1","contracts":3,"seed":17,"iterations":30,"memo":"shared","fastvm":true}`

// legacyReference runs the legacy spec, minus the retired field, offline.
func legacyReference(t *testing.T) (findings, state string) {
	t.Helper()
	var spec JobSpec
	if err := json.Unmarshal([]byte(legacySpec), &spec); err != nil {
		t.Fatal(err)
	}
	if want := (JobSpec{Tenant: "t1", Contracts: 3, Seed: 17, Iterations: 30, Memo: "shared"}); spec != want {
		t.Fatalf("legacy spec decoded as %+v, want %+v", spec, want)
	}
	ref, err := RunSpec(context.Background(), spec, "", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ref.FindingsDigest(), ref.StateDigest()
}

// startCompatServer runs a daemon over dataDir until the test ends.
func startCompatServer(t *testing.T, dataDir string) string {
	t.Helper()
	s, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		if err := <-runDone; err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	return ts.URL
}

func requireLegacyDigests(t *testing.T, st JobState, findings, state string) {
	t.Helper()
	if st.Status != StatusCompleted {
		t.Fatalf("legacy job finished as %q (err %q)", st.Status, st.Err)
	}
	if st.FindingsDigest != findings || st.StateDigest != state {
		t.Errorf("legacy spec digests diverge from the same spec without the field:\n got: %q / %q\nwant: %q / %q",
			st.FindingsDigest, st.StateDigest, findings, state)
	}
}

// TestLegacyFastVMSpecSubmit posts the legacy spec over HTTP.
func TestLegacyFastVMSpecSubmit(t *testing.T) {
	findings, state := legacyReference(t)
	base := startCompatServer(t, t.TempDir())
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewBufferString(legacySpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	requireLegacyDigests(t, waitFinished(t, base, out["id"], 60*time.Second), findings, state)
}

// TestLegacyFastVMSpecWALReplay plants the legacy spec as an unfinished
// submit record in the registry WAL, as a daemon that crashed before the
// field was retired would have left it; the restarted daemon must replay
// and finish the job.
func TestLegacyFastVMSpecWALReplay(t *testing.T) {
	findings, state := legacyReference(t)
	dir := t.TempDir()
	meta, err := json.Marshal(stateMeta{Magic: stateMagic})
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Create(filepath.Join(dir, "serve.wal"), wal.Options{SyncEvery: 1, Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append([]byte(`{"kind":"submit","id":0,"spec":` + legacySpec + `}`)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	base := startCompatServer(t, dir)
	st := waitFinished(t, base, 0, 60*time.Second)
	if !st.Resumed {
		t.Error("the planted job was not replayed from the registry WAL")
	}
	requireLegacyDigests(t, st, findings, state)
}
