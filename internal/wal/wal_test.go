package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func appendAll(t *testing.T, l *Log, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append([]byte(r)); err != nil {
			t.Fatalf("append %q: %v", r, err)
		}
	}
}

func records(r *Replay) []string {
	out := make([]string, len(r.Records))
	for i, b := range r.Records {
		out[i] = string(b)
	}
	return out
}

func TestCreateAppendOpenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	meta := json.RawMessage(`{"base_seed":42}`)
	l, err := Create(path, Options{Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, `{"id":1}`, `{"id":2}`, `{"id":3}`)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, replay, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got, want := records(replay), []string{`{"id":1}`, `{"id":2}`, `{"id":3}`}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("replayed %v, want %v", got, want)
	}
	if string(replay.Meta) != string(meta) {
		t.Errorf("meta %s, want %s", replay.Meta, meta)
	}
	if replay.Gen != 1 {
		t.Errorf("gen %d, want 1", replay.Gen)
	}
	if replay.Dropped != 0 || replay.Truncated != 0 {
		t.Errorf("clean log reported dropped=%d truncated=%d", replay.Dropped, replay.Truncated)
	}
}

// TestTornFinalLineTruncated is the crash test the journal durability fix
// demands: a SIGKILL mid-write leaves a half-frame at EOF; Open must cut
// it off physically, replay only the durable prefix, and append cleanly
// after the repair.
func TestTornFinalLineTruncated(t *testing.T) {
	for _, tear := range []struct {
		name string
		tear func([]byte) []byte
	}{
		{"mid-payload-no-newline", func(b []byte) []byte { return b[:len(b)-7] }},
		{"bad-crc-at-eof", func(b []byte) []byte {
			// Corrupt a payload byte of the final line, keeping the newline.
			c := append([]byte{}, b...)
			c[len(c)-3] ^= 0x40
			return c
		}},
		{"garbage-tail", func(b []byte) []byte { return append(b, []byte("zzzz not a frame")...) }},
	} {
		t.Run(tear.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "test.wal")
			l, err := Create(path, Options{SyncEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, `{"id":1}`, `{"id":2}`, `{"id":3}`)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tear.tear(data), 0o644); err != nil {
				t.Fatal(err)
			}

			l2, replay, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if replay.Truncated == 0 {
				t.Error("torn tail reported zero truncated bytes")
			}
			appendAll(t, l2, `{"id":4}`)
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}

			_, replay2, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := records(replay2)
			if len(got) == 0 || got[len(got)-1] != `{"id":4}` {
				t.Fatalf("post-repair append lost: %v", got)
			}
			// The torn record is gone; everything before it survived.
			for _, r := range got {
				if strings.Contains(r, "zzzz") {
					t.Errorf("garbage survived replay: %q", r)
				}
			}
			if replay2.Truncated != 0 || replay2.Dropped != 0 {
				t.Errorf("repaired log still reports truncated=%d dropped=%d", replay2.Truncated, replay2.Dropped)
			}
		})
	}
}

// TestInteriorCorruptionDropped: a bit-rotted interior line is excluded
// from replay without losing the records after it.
func TestInteriorCorruptionDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Create(path, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, `{"id":1}`, `{"id":2}`, `{"id":3}`)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's payload.
	idx := bytes.Index(data, []byte(`{"id":2}`))
	if idx < 0 {
		t.Fatal("record not found")
	}
	data[idx+1] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, replay, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got, want := records(replay), []string{`{"id":1}`, `{"id":3}`}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("replayed %v, want %v", got, want)
	}
	if replay.Dropped != 1 {
		t.Errorf("dropped %d, want 1", replay.Dropped)
	}
}

// TestHeaderlessFileRestarts: a file that never got a durable header (the
// crash landed before the header fsync) restarts as a fresh log instead of
// failing or trusting garbage.
func TestHeaderlessFileRestarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	if err := os.WriteFile(path, []byte("half a hea"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, replay, err := Open(path, Options{Meta: json.RawMessage(`{"v":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Records) != 0 || replay.Meta != nil {
		t.Errorf("headerless open replayed records=%d meta=%s", len(replay.Records), replay.Meta)
	}
	appendAll(t, l, `{"id":1}`)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, replay2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := records(replay2); len(got) != 1 || got[0] != `{"id":1}` {
		t.Errorf("restarted log replayed %v", got)
	}
	if string(replay2.Meta) != `{"v":1}` {
		t.Errorf("restarted header lost meta: %s", replay2.Meta)
	}
}

func TestOpenMissingFile(t *testing.T) {
	_, _, err := Open(filepath.Join(t.TempDir(), "absent.wal"), Options{})
	if !os.IsNotExist(err) {
		t.Fatalf("err = %v, want IsNotExist", err)
	}
}

// TestSyncPolicy: the fsync counter follows the configured cadence, and
// Close flushes the remainder.
func TestSyncPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Create(path, Options{SyncEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := l.Stats().Syncs // header sync
	if base != 1 {
		t.Fatalf("header syncs = %d, want 1", base)
	}
	appendAll(t, l, "a", "b")
	if got := l.Stats().Syncs - base; got != 0 {
		t.Errorf("syncs after 2 appends = %d, want 0", got)
	}
	appendAll(t, l, "c")
	if got := l.Stats().Syncs - base; got != 1 {
		t.Errorf("syncs after 3 appends = %d, want 1", got)
	}
	appendAll(t, l, "d")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Close syncs the pending 4th record.
	if got := l.Stats().Appends; got != 4 {
		t.Errorf("appends = %d, want 4", got)
	}
}

// TestSyncDisabled: negative SyncEvery never fsyncs on append (only the
// header and Close do).
func TestSyncDisabled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Create(path, Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "a", "b", "c", "d", "e", "f", "g", "h", "i", "j")
	if got := l.Stats().Syncs; got != 1 {
		t.Errorf("syncs = %d, want 1 (header only)", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExplicitSync: Sync fsyncs under a disabled policy and clears the
// pending count, so Close has nothing left to sync; a Sync after Close
// fails, and the failure sticks in Err.
func TestExplicitSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Create(path, Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "a", "b")
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := l.Stats().Syncs; got != 2 {
		t.Errorf("syncs after explicit Sync = %d, want 2 (header + Sync)", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Syncs; got != 2 {
		t.Errorf("syncs after Close = %d, want 2 (nothing pending)", got)
	}
	if l.Err() != nil {
		t.Fatalf("Err before any failure = %v", l.Err())
	}
	syncErr := l.Sync()
	if syncErr == nil {
		t.Fatal("Sync after Close succeeded")
	}
	if l.Err() == nil || l.Err().Error() != syncErr.Error() {
		t.Fatalf("Err() = %v, want the sticky %v", l.Err(), syncErr)
	}
	if err := l.Append([]byte("c")); err == nil || err.Error() != syncErr.Error() {
		t.Fatalf("Append after sticky failure = %v, want %v", err, syncErr)
	}
}

// TestRotate: rotation bumps the generation, keeps exactly the requested
// records, swaps meta, and survives a reopen.
func TestRotate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Create(path, Options{Meta: json.RawMessage(`{"v":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, `{"id":1}`, `{"id":2}`, `{"id":3}`)
	if err := l.Rotate(json.RawMessage(`{"v":2}`), [][]byte{[]byte(`{"id":3}`)}); err != nil {
		t.Fatal(err)
	}
	if l.Gen() != 2 {
		t.Errorf("gen after rotate = %d, want 2", l.Gen())
	}
	appendAll(t, l, `{"id":4}`)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, replay, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := records(replay), []string{`{"id":3}`, `{"id":4}`}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("post-rotate replay %v, want %v", got, want)
	}
	if replay.Gen != 2 {
		t.Errorf("post-rotate gen = %d, want 2", replay.Gen)
	}
	if string(replay.Meta) != `{"v":2}` {
		t.Errorf("post-rotate meta = %s, want {\"v\":2}", replay.Meta)
	}
}

// TestConcurrentAppend: appends from many goroutines never tear frames.
func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Create(path, Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	const n, workers = 50, 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < n; i++ {
				if err := l.Append([]byte(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, replay, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Records) != n*workers {
		t.Errorf("replayed %d records, want %d", len(replay.Records), n*workers)
	}
	if replay.Dropped != 0 || replay.Truncated != 0 {
		t.Errorf("concurrent appends produced dropped=%d truncated=%d", replay.Dropped, replay.Truncated)
	}
}

func TestAppendRejectsNewline(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "test.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("a\nb")); err == nil {
		t.Fatal("Append accepted a payload with a newline")
	}
}
