// Command perfbench is the repository benchmark's timed run: it drives one
// workload through the public facade or the daemon's HTTP API for the
// given number of seconds, checks the findings, and prints the
// end-to-end metrics as the last line of its output. Build and run it
// with perfbench/run.sh from the root of a checkout; README.md lists the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/perfbench/workload"
)

func main() {
	name := flag.String("workload", "", "workload: wild-sweep, blackbox-sweep or daemon-mix")
	seed := flag.Int64("seed", workload.DefaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: timed run (this binary); 1: traced run (perfbench/traced)")
	pin := flag.Int("pin-seeds", 0, "print the pass-0 findings digests of seeds 0..n-1 as pinned.json, and their lowest scores on stderr, and exit")
	flag.Parse()
	if *pin > 0 {
		if err := printPins(*pin); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int) error {
	if trace != 0 {
		return fmt.Errorf("the timed binary runs --trace 0 only; run.sh builds perfbench/traced for --trace 1")
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	var res *workload.Result
	switch name {
	case workload.WildSweep, workload.BlackboxSweep:
		s, err := workload.Sweep(context.Background(), workload.SweepOptions{Workload: name, Seed: seed, Seconds: seconds})
		if err != nil {
			return err
		}
		if s.Mismatch {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: pass-0 findings digest %s differs from the pinned one\n", name, seed, s.Passes[0].Digest)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes, findings_f1=%.4f, pass-0 digest %s\n",
			name, seed, len(s.Passes), s.Scores.Total().F1(), s.Passes[0].Digest)
		for _, b := range s.BelowFloor(name) {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: below floor: %s\n", name, seed, b)
		}
		for k, p := range s.Passes {
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: %d contracts in %v (%.1f/s)\n", k, p.Contracts, p.Wall.Round(time.Millisecond), float64(p.Contracts)/p.Wall.Seconds())
		}
		res = s.Report(name)
	case workload.DaemonMix:
		d, err := workload.RunDaemonMix(workload.DaemonOptions{Seed: seed, Seconds: seconds, MinJobs: workload.MinDaemonJobs})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: daemon-mix seed %d: %d jobs (%d repeats), shed %d\n",
			seed, len(d.Jobs), d.Repeats, d.Stats.Shed)
		res = d.Report()
	default:
		return fmt.Errorf("unknown workload %q (want one of %v)", name, workload.Names)
	}
	return res.Write(os.Stdout)
}

// printPins regenerates workload/pinned.json: the findings digest of sweep
// pass 0 for each seed, run at the benchmark's default sizes. On stderr it
// prints the lowest F1 and per-class recall those passes scored, from which
// workload.Floors are set.
func printPins(n int) error {
	pins := map[string]map[string]string{}
	for _, name := range []string{workload.WildSweep, workload.BlackboxSweep} {
		pins[name] = map[string]string{}
		minF1 := 1.0
		minRecall := map[string]float64{}
		for seed := int64(0); seed < int64(n); seed++ {
			ps := workload.PassSeed(seed, 0)
			pop, err := workload.SweepPass(name, ps, 0)
			if err != nil {
				return err
			}
			p, err := workload.RunPass(context.Background(), name, ps, 0, pop)
			if err != nil {
				return err
			}
			if p.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d contracts failed", name, seed, p.Failed)
			}
			pins[name][strconv.FormatInt(seed, 10)] = p.Digest
			minF1 = min(minF1, p.Scores.Total().F1())
			for class, c := range p.Scores {
				if r, ok := minRecall[class]; !ok || c.Recall() < r {
					minRecall[class] = c.Recall()
				}
			}
		}
		classes := make([]string, 0, len(minRecall))
		for class := range minRecall {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		fmt.Fprintf(os.Stderr, "%s seeds 0..%d: lowest findings_f1 %.4f\n", name, n-1, minF1)
		for _, class := range classes {
			fmt.Fprintf(os.Stderr, "%s seeds 0..%d: lowest %s recall %.4f\n", name, n-1, class, minRecall[class])
		}
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}
