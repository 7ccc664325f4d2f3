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

// Legacy JobSpecs as clients (and registry WALs) wrote them while engine
// toggles that are now retired still existed: the decoded-IR engine's
// "fastvm" (now unconditional), the campaign pre-analysis skips
// "verdicts" and "static_triage" (now deleted; every job fuzzes), the
// solver pre-pass's "incremental" (now unconditional) and the memo scope
// "memo" (still decoded, but ignored: every daemon job uses the daemon's
// cache). The spec decoder ignores unknown fields, so each job must run as
// if the field were absent.
const (
	legacySpec             = `{"tenant":"t1","contracts":3,"seed":17,"iterations":30,"memo":"shared","fastvm":true}`
	legacyVerdictsSpec     = `{"tenant":"t1","contracts":3,"seed":17,"iterations":30,"memo":"shared","verdicts":true}`
	legacyStaticTriageSpec = `{"tenant":"t1","contracts":3,"seed":17,"iterations":30,"memo":"shared","static_triage":true}`
)

// legacyPreAnalysisSpecs names the specs carrying a retired pre-analysis
// field.
var legacyPreAnalysisSpecs = map[string]string{
	"verdicts":      legacyVerdictsSpec,
	"static_triage": legacyStaticTriageSpec,
}

// legacySolverSpecs names the specs carrying a retired solver or memo
// toggle.
var legacySolverSpecs = map[string]string{
	"incremental": `{"tenant":"t1","contracts":3,"seed":17,"iterations":30,"incremental":true}`,
	"memo=off":    `{"tenant":"t1","contracts":3,"seed":17,"iterations":30,"memo":"off"}`,
	"memo=on":     `{"tenant":"t1","contracts":3,"seed":17,"iterations":30,"memo":"on"}`,
	"memo=shared": `{"tenant":"t1","contracts":3,"seed":17,"iterations":30,"memo":"shared"}`,
}

// legacyReference runs a legacy spec offline, minus the retired field and
// the ignored memo value.
func legacyReference(t *testing.T, legacy string) (findings, state string) {
	t.Helper()
	var spec JobSpec
	if err := json.Unmarshal([]byte(legacy), &spec); err != nil {
		t.Fatal(err)
	}
	spec.Memo = ""
	if want := (JobSpec{Tenant: "t1", Contracts: 3, Seed: 17, Iterations: 30}); spec != want {
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
	requireLegacySubmit(t, legacySpec)
}

// TestLegacyPreAnalysisSpecSubmit posts specs carrying the retired
// "verdicts" and "static_triage" fields over HTTP.
func TestLegacyPreAnalysisSpecSubmit(t *testing.T) {
	for field, legacy := range legacyPreAnalysisSpecs {
		t.Run(field, func(t *testing.T) { requireLegacySubmit(t, legacy) })
	}
}

// TestLegacySolverSpecSubmit posts specs carrying "incremental" or a memo
// mode over HTTP.
func TestLegacySolverSpecSubmit(t *testing.T) {
	for field, legacy := range legacySolverSpecs {
		t.Run(field, func(t *testing.T) { requireLegacySubmit(t, legacy) })
	}
}

func requireLegacySubmit(t *testing.T, legacy string) {
	t.Helper()
	findings, state := legacyReference(t, legacy)
	base := startCompatServer(t, t.TempDir())
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewBufferString(legacy))
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
	requireLegacyWALReplay(t, legacySpec)
}

// TestLegacyPreAnalysisSpecWALReplay is TestLegacyFastVMSpecWALReplay for
// the retired "verdicts" and "static_triage" fields.
func TestLegacyPreAnalysisSpecWALReplay(t *testing.T) {
	for field, legacy := range legacyPreAnalysisSpecs {
		t.Run(field, func(t *testing.T) { requireLegacyWALReplay(t, legacy) })
	}
}

// TestLegacySolverSpecWALReplay is TestLegacyFastVMSpecWALReplay for specs
// carrying "incremental" or a memo mode.
func TestLegacySolverSpecWALReplay(t *testing.T) {
	for field, legacy := range legacySolverSpecs {
		t.Run(field, func(t *testing.T) { requireLegacyWALReplay(t, legacy) })
	}
}

func requireLegacyWALReplay(t *testing.T, legacy string) {
	t.Helper()
	findings, state := legacyReference(t, legacy)
	dir := t.TempDir()
	meta, err := json.Marshal(stateMeta{Magic: stateMagic})
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Create(filepath.Join(dir, "serve.wal"), wal.Options{SyncEvery: 1, Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append([]byte(`{"kind":"submit","id":0,"spec":` + legacy + `}`)); err != nil {
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
