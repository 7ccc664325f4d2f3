package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// crash_test.go is the daemon's tentpole e2e: build the real wasai-serve
// binary, SIGKILL it mid-campaign, restart it on the same data
// directory, and require the resumed job's digests to be byte-identical
// to an uninterrupted run's — at 1, 4 and 8 campaign workers.

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// serveBinary builds cmd/wasai-serve once per test process.
func serveBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "wasai-serve-bin")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "wasai-serve")
		cmd := exec.Command("go", "build", "-o", buildBin, "repro/cmd/wasai-serve")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// startServe launches the daemon on an ephemeral port and waits for it
// to come up. It returns the process and its base URL.
func startServe(t *testing.T, bin, dataDir string) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(dataDir, "addr")
	os.Remove(addrFile)
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-data", dataDir,
		"-store", filepath.Join(dataDir, "store"),
		"-journal-sync", "1", // every record: the kill window must be on disk
	)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second) //wasai:nondet test startup deadline
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			url := "http://" + string(b)
			resp, err := http.Get(url + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return cmd, url
				}
			}
		}
		if time.Now().After(deadline) { //wasai:nondet test startup deadline
			cmd.Process.Kill()
			t.Fatal("wasai-serve did not come up within 30s")
		}
		time.Sleep(10 * time.Millisecond) //wasai:nondet test polling
	}
}

// journalLines counts newline-framed records currently on disk in job
// id's campaign journal (header included).
func journalLines(dataDir string, id int) int {
	b, err := os.ReadFile(filepath.Join(dataDir, "jobs", fmt.Sprintf("%d.wal", id)))
	if err != nil {
		return 0
	}
	return bytes.Count(b, []byte("\n"))
}

func postSpec(t *testing.T, url string, spec JobSpec) int {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out["id"]
}

func TestKillRestartDigestIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	bin := serveBinary(t)

	const contracts = 12
	mkSpec := func(workers int) JobSpec {
		return JobSpec{
			Tenant:     "crash",
			Name:       fmt.Sprintf("kill-w%d", workers),
			Contracts:  contracts,
			Seed:       21,
			Iterations: 60,
			Workers:    workers,
		}
	}
	// The digest is worker-count invariant, so one reference serves all
	// three worker counts — that invariance is itself under test here.
	ref, err := RunSpec(context.Background(), mkSpec(1), "", false, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			spec := mkSpec(workers)
			// The kill must land mid-campaign: after some contracts are
			// journaled, before the job finishes. If the campaign outruns
			// the killer, retry on a fresh data dir.
			for attempt := 0; attempt < 4; attempt++ {
				if killed := killRestartOnce(t, bin, spec, ref.FindingsDigest(), ref.StateDigest()); killed {
					return
				}
				t.Logf("attempt %d: campaign finished before the kill landed; retrying", attempt)
			}
			t.Fatal("could not land a mid-campaign kill in 4 attempts")
		})
	}
}

// killRestartOnce runs one kill+restart cycle. It returns false (without
// failing the test) when the kill landed too late to interrupt anything.
func killRestartOnce(t *testing.T, bin string, spec JobSpec, wantFindings, wantState string) bool {
	t.Helper()
	dataDir := t.TempDir()
	cmd, url := startServe(t, bin, dataDir)
	defer func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	id := postSpec(t, url, spec)

	// Poll the job's campaign journal and SIGKILL — no warning, no
	// flush — once at least two contracts are durably recorded.
	deadline := time.Now().Add(60 * time.Second) //wasai:nondet test deadline
	for {
		lines := journalLines(dataDir, id)
		if lines >= 3 { // header + >=2 contract records
			break
		}
		if time.Now().After(deadline) { //wasai:nondet test deadline
			t.Fatalf("journal never grew (has %d lines)", lines)
		}
		time.Sleep(2 * time.Millisecond) //wasai:nondet test polling
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Restart on the same data directory: the registry must re-queue the
	// interrupted job and its campaign journal must resume.
	cmd2, url2 := startServe(t, bin, dataDir)
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	st := waitFinished(t, url2, id, 120*time.Second)
	if st.Status != StatusCompleted {
		t.Fatalf("resumed job finished as %q (err %q)", st.Status, st.Err)
	}
	if !st.Resumed {
		// The whole campaign completed and recorded its outcome before
		// the kill: nothing was interrupted, so this cycle proves
		// nothing. Signal the caller to retry.
		return false
	}
	if st.Replayed == 0 {
		t.Fatal("resumed job replayed nothing from its journal")
	}
	if st.Replayed >= spec.Contracts {
		return false // journal was already complete; kill landed too late
	}
	if st.FindingsDigest != wantFindings {
		t.Errorf("FindingsDigest diverged after SIGKILL+restart:\n got: %q\nwant: %q", st.FindingsDigest, wantFindings)
	}
	if st.StateDigest != wantState {
		t.Errorf("StateDigest diverged after SIGKILL+restart:\n got: %q\nwant: %q", st.StateDigest, wantState)
	}
	t.Logf("killed after %d/%d contracts; resumed run replayed %d", st.Replayed, spec.Contracts, st.Replayed)
	return true
}

// TestColdWarmStoreDigestIdentity is the durable-store acceptance: two
// daemon runs over the same spec and store directory must produce
// identical digests, with the warm run answering solver queries from
// disk (fewer SAT calls, reported via /stats).
func TestColdWarmStoreDigestIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	bin := serveBinary(t)
	spec := JobSpec{
		Tenant:     "warm",
		Name:       "cold-warm",
		Contracts:  8,
		Seed:       33,
		Iterations: 50,
	}

	run := func(dataDir string) (JobState, StatsReport) {
		cmd, url := startServe(t, bin, dataDir)
		defer func() {
			cmd.Process.Kill()
			cmd.Wait()
		}()
		id := postSpec(t, url, spec)
		st := waitFinished(t, url, id, 120*time.Second)
		var stats StatsReport
		getJSON(t, url+"/stats", &stats)
		return st, stats
	}

	// Cold and warm daemons share the store via a shared parent: each
	// gets its own data dir (fresh registry, fresh journals) but the
	// same -store directory.
	parent := t.TempDir()
	cold := filepath.Join(parent, "cold")
	warm := filepath.Join(parent, "warm")
	sharedStore := filepath.Join(parent, "store")
	for _, d := range []string{cold, warm} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		// Point both daemons' -store at the shared directory.
		if err := os.Symlink(sharedStore, filepath.Join(d, "store")); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(sharedStore, 0o755); err != nil {
		t.Fatal(err)
	}

	stCold, statsCold := run(cold)
	stWarm, statsWarm := run(warm)
	if stCold.Status != StatusCompleted || stWarm.Status != StatusCompleted {
		t.Fatalf("cold=%q warm=%q", stCold.Status, stWarm.Status)
	}
	if stCold.FindingsDigest != stWarm.FindingsDigest || stCold.StateDigest != stWarm.StateDigest {
		t.Errorf("cold/warm digests diverge:\ncold: %q / %q\nwarm: %q / %q",
			stCold.FindingsDigest, stCold.StateDigest, stWarm.FindingsDigest, stWarm.StateDigest)
	}
	if statsWarm.Memo.StoreHits == 0 {
		t.Errorf("warm run had no disk-store hits: %+v", statsWarm.Memo)
	}
	if statsCold.Store == nil || statsCold.Store.Writes == 0 {
		t.Errorf("cold run wrote nothing to the store: %+v", statsCold.Store)
	}
	t.Logf("cold: %s", statsCold.Memo)
	t.Logf("warm: %s (disk store: %v)", statsWarm.Memo, statsWarm.Store)
}
