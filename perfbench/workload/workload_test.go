package workload

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// endToEnd reads the end-to-end metric names from the repository's
// BENCHMARK.json, so the self-test fails when the two drift apart.
func endToEnd(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// checkResult requires a clean result that reports exactly the
// end-to-end metrics, each positive.
func checkResult(t *testing.T, res *Result, attempted int) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted != attempted {
		t.Errorf("result: correct=%v attempted=%d failed=%d, want a clean run of %d", res.Correct, res.Attempted, res.Failed, attempted)
	}
	var got []string
	for name, m := range res.Metrics {
		got = append(got, name)
		if !(m.Value > 0) {
			t.Errorf("metric %s = %v, want a positive value", name, m.Value)
		}
	}
	sort.Strings(got)
	if want := endToEnd(t); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("metrics %v, want %v", got, want)
	}
}

func TestSweepSmoke(t *testing.T) {
	for _, name := range []string{WildSweep, BlackboxSweep} {
		t.Run(name, func(t *testing.T) {
			run, err := Sweep(context.Background(), SweepOptions{Workload: name, Seed: 3, PassSize: 4, Iterations: 24, MinPasses: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Passes) != 2 {
				t.Fatalf("%d passes, want 2", len(run.Passes))
			}
			checkResult(t, run.Report(name), 8)
		})
	}
}

func TestDaemonSmoke(t *testing.T) {
	run, err := RunDaemonMix(DaemonOptions{Seed: 3, Contracts: 2, Iterations: 24, MinJobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Jobs) != 4 || run.Repeats != 2 {
		t.Errorf("%d jobs with %d repeats, want 4 with 2", len(run.Jobs), run.Repeats)
	}
	if run.Stats.Wal.Appends == 0 || run.Stats.Store == nil || run.Stats.Store.Writes == 0 {
		t.Errorf("daemon layers idle: %+v", run.Stats)
	}
	checkResult(t, run.Report(), 4)
}

// TestPinnedDigest runs pass 0 of a pinned seed at the default sizes: the
// pinned digest must match and the scores clear the floors, a raised floor
// must make the result incorrect, and a wrong digest must fail every
// contract.
func TestPinnedDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full-size pass")
	}
	const seed = 7
	key := strconv.Itoa(seed)
	want, ok := Pinned[WildSweep][key]
	if !ok {
		t.Fatalf("no pinned digest for seed %d", seed)
	}
	opts := SweepOptions{Workload: WildSweep, Seed: seed}
	run, err := Sweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if run.Mismatch || run.Failed != 0 || run.Passes[0].Digest != want {
		t.Fatalf("pass 0 digest %s, pinned %s (failed %d)", run.Passes[0].Digest, want, run.Failed)
	}
	if below := run.BelowFloor(WildSweep); len(below) != 0 || !run.Report(WildSweep).Correct {
		t.Fatalf("pinned pass below floor: %v", below)
	}

	// A class that stops firing must fail the floor.
	floor := Floors[WildSweep]
	Floors[WildSweep] = Floor{Recall: map[string]float64{"MissAuth": 1.01}}
	if below := run.BelowFloor(WildSweep); len(below) != 1 || run.Report(WildSweep).Correct {
		t.Errorf("raised floor: below=%v, want one class below and an incorrect result", below)
	}
	Floors[WildSweep] = floor

	Pinned[WildSweep][key] = strings.Repeat("0", 64)
	defer func() { Pinned[WildSweep][key] = want }()
	run, err = Sweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res := run.Report(WildSweep)
	if !run.Mismatch || res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
		t.Errorf("wrong pinned digest: mismatch=%v correct=%v failed=%d/%d, want every contract failed",
			run.Mismatch, res.Correct, res.Failed, res.Attempted)
	}
}

// TestSameSeedDigests requires a pass to repeat its findings digest.
func TestSameSeedDigests(t *testing.T) {
	for _, name := range []string{WildSweep, BlackboxSweep} {
		pop, err := SweepPass(name, PassSeed(4, 0), 6)
		if err != nil {
			t.Fatal(err)
		}
		var digests []string
		for i := 0; i < 2; i++ {
			p, err := RunPass(context.Background(), name, PassSeed(4, 0), 24, pop)
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, p.Digest)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digests %v differ", name, digests)
		}
	}
}

// TestSelfTimes checks that a span's self time subtracts the union of
// its children's intervals, counting an overlap once.
func TestSelfTimes(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	spans := []Span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(60)},
	}
	self := SelfTimes(spans)
	if got := self[1]; got != 50*time.Millisecond {
		t.Errorf("root self time %v, want 50ms", got)
	}
	if got := self[2]; got != 30*time.Millisecond {
		t.Errorf("leaf self time %v, want 30ms", got)
	}
}
