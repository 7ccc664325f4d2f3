package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/perfbench/workload"
)

// perLayer reads the per-layer metric names from BENCHMARK.json.
func perLayer(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// TestTracedSmoke runs a tiny traced run of every workload. It requires
// every per-layer metric, zeros exactly where a layer does no work (the
// replay and solver layers on blackbox-sweep, the serving layers outside
// daemon-mix), and one root span per sampled contract and daemon job, each
// contract and job under its own trace ID.
func TestTracedSmoke(t *testing.T) {
	sz := sizes{
		sweepContracts: 4, iterations: 24,
		daemonSpecs: 1, daemonContracts: 2, daemonMinJobs: 2,
		driverContracts: 2, driverTxs: 12, driverInst: 2,
	}
	want := perLayer(t)
	serving := []string{"serve.", "wal.", "store.", "memo."}
	for _, name := range workload.Names {
		t.Run(name, func(t *testing.T) {
			res, spans, err := run(name, 3, 0, sz)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for m := range res.Metrics {
				got = append(got, m)
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("metrics %v, want %v", got, want)
			}
			value := func(m string) float64 { return res.Metrics[m].Value }
			for m := range res.Metrics {
				isServing := false
				for _, p := range serving {
					isServing = isServing || strings.HasPrefix(m, p)
				}
				replay := strings.HasPrefix(m, "symexec.") || strings.HasPrefix(m, "symbolic.")
				switch {
				case isServing && name != workload.DaemonMix && value(m) != 0:
					t.Errorf("%s = %v outside daemon-mix, want 0", m, value(m))
				case replay && name == workload.BlackboxSweep && value(m) != 0:
					t.Errorf("%s = %v on blackbox-sweep, want 0", m, value(m))
				}
			}
			for _, m := range []string{"fuzz.loop_ms", "chain.push_us", "exec.instantiate_us", "exec.instantiations_per_contract", "runtime.mallocs_per_contract"} {
				if value(m) <= 0 {
					t.Errorf("%s = %v, want positive", m, value(m))
				}
			}
			if name != workload.BlackboxSweep && value("symexec.replay_us") <= 0 {
				t.Errorf("symexec.replay_us = 0 with feedback on")
			}
			if name == workload.DaemonMix && (value("serve.run_ms") <= 0 || value("wal.appends") <= 0) {
				t.Errorf("daemon spans or /stats missing: run %v, appends %v", value("serve.run_ms"), value("wal.appends"))
			}
			roots := map[string]int{}
			byTrace := map[int64][]string{}
			for _, s := range spans {
				if s.Parent == 0 {
					roots[s.Name]++
					byTrace[s.TraceID] = append(byTrace[s.TraceID], s.Name)
				}
			}
			// A trace is one contract (outer root, maybe a stage root) or
			// one daemon job.
			for id, names := range byTrace {
				sort.Strings(names)
				if j := strings.Join(names, ","); j != "contract" && j != "contract,stage" && j != "serve.job" {
					t.Errorf("trace %d has roots %v", id, names)
				}
			}
			if roots["contract"] == 0 || roots["stage"] != sz.driverContracts {
				t.Errorf("root spans %v", roots)
			}
			if name == workload.DaemonMix && roots["serve.job"] < sz.daemonMinJobs {
				t.Errorf("root spans %v, want %d serve.job", roots, sz.daemonMinJobs)
			}
		})
	}
}
