package workload

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	wasai "repro"
)

// Workers is the worker-pool size of every timed run: one process, two
// workers, on the 2-core machine the figures are quoted for.
const Workers = 2

// DefaultSeed is the --seed default.
const DefaultSeed = 1

//go:embed pinned.json
var pinnedJSON []byte

// Pinned maps workload → seed → the findings digest of sweep pass 0, for
// seeds 0–255. Seeds without an entry are checked by Floors and error
// count only.
var Pinned = mustPinned()

func mustPinned() map[string]map[string]string {
	var p map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		panic(fmt.Sprintf("perfbench: pinned.json: %v", err))
	}
	return p
}

// Floor is the lowest findings score a sweep at the default sizes may
// reach before its findings count as wrong: F1 over every scored
// (contract, class) pair, and the recall of each listed class. A run's
// scores pool its passes, so each lies between its passes' lowest and
// highest; the floors catch a detector class that stops firing on seeds
// without a pinned digest.
type Floor struct {
	F1     float64
	Recall map[string]float64
}

// Floors maps each sweep workload to its floor. Pass 0 of the 256 pinned
// seeds (printed by -pin-seeds) scored F1 1.0 and recall 1.0 on every wild
// class, and F1 0.873 on the ground-truth corpus, where every class read
// recall 1.0 except BlockinfoDep and Rollback, which read as low as 0:
// without feedback the fuzzer seldom reaches their vulnerable paths, so
// they get no floor.
var Floors = map[string]Floor{
	WildSweep: {F1: 0.95, Recall: map[string]float64{
		"BlockinfoDep": 0.95, "Fake EOS": 0.95, "Fake Notif": 0.95, "MissAuth": 0.95, "Rollback": 0.95,
	}},
	BlackboxSweep: {F1: 0.85, Recall: map[string]float64{
		"CrossContract": 0.95, "Fake EOS": 0.95, "Fake Notif": 0.95, "MissAuth": 0.95, "OrderDep": 0.95, "StateTamper": 0.95,
	}},
}

// SweepOptions sizes a sweep. Zero values take the benchmark defaults;
// the self-test shrinks them.
type SweepOptions struct {
	Workload   string
	Seed       int64
	Seconds    float64
	PassSize   int // contracts per pass (0 = workload default)
	Iterations int // per-contract fuzzing budget (0 = the paper's 240)
	MinPasses  int // passes run even past the deadline (0 = 1)
}

// PassOutcome is one sweep pass.
type PassOutcome struct {
	Contracts int
	Failed    int
	Setup     time.Duration
	Wall      time.Duration
	Jobs      []time.Duration
	Digest    string
	Scores    Scores
	Runtime   Runtime
}

// BatchConfig is the facade configuration of a sweep: the library
// defaults, with only the worker count, the seed and the workload's
// feedback setting chosen. No digest-neutral toggle is set.
func BatchConfig(workload string, seed int64, iterations int) wasai.BatchConfig {
	cfg := wasai.DefaultBatchConfig()
	cfg.Workers = Workers
	cfg.Seed = seed
	cfg.DisableFeedback = !Feedback(workload)
	if iterations > 0 {
		cfg.Iterations = iterations
	}
	return cfg
}

// RunPass analyses one population through the facade and returns its
// timings, findings digest and scores.
func RunPass(ctx context.Context, workload string, passSeed int64, iterations int, pop []Contract) (*PassOutcome, error) {
	cfg := BatchConfig(workload, passSeed, iterations)
	before := ReadRuntime()
	start := time.Now()
	c, err := wasai.NewCampaign(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("new campaign: %w", err)
	}
	var setup time.Duration
	for i, ct := range pop {
		if err := c.Submit(wasai.BatchJob{Name: ct.Name, Wasm: ct.Wasm, ABIJSON: ct.ABIJSON}); err != nil {
			c.Wait()
			return nil, fmt.Errorf("submit %s: %w", ct.Name, err)
		}
		if i == 0 {
			setup = time.Since(start)
		}
	}
	rep := c.Wait()
	out := &PassOutcome{
		Contracts: len(pop),
		Setup:     setup,
		Wall:      time.Since(start),
		Runtime:   ReadRuntime().Sub(before),
		Scores:    Scores{},
	}
	var d Digest
	for i, br := range rep.Jobs {
		out.Jobs = append(out.Jobs, br.Duration)
		if br.Err != nil || br.Report == nil {
			out.Failed++
			d.AddFailed(pop[i].Name)
			continue
		}
		d.Add(pop[i].Name, br.Report)
		out.Scores.Score(pop[i].Truth, br.Report)
	}
	out.Digest = d.Sum()
	return out, nil
}

// SweepRun is the outcome of a timed sweep.
type SweepRun struct {
	Passes    []*PassOutcome
	Mismatch  bool // pass 0 disagreed with its pinned digest
	Defaults  bool // run at the default sizes, where pins and floors apply
	Scores    Scores
	LiveHeap  float64
	Attempted int
	Failed    int
}

// Sweep runs passes over fresh populations until the measured time
// reaches the budget. A small untimed warm-up pass runs first so the
// runtime's heap has grown before timing starts.
func Sweep(ctx context.Context, o SweepOptions) (*SweepRun, error) {
	warm, err := SweepPass(o.Workload, PassSeed(o.Seed, 999), 4)
	if err != nil {
		return nil, err
	}
	if _, err := RunPass(ctx, o.Workload, PassSeed(o.Seed, 999), o.Iterations, warm); err != nil {
		return nil, err
	}
	minPasses := o.MinPasses
	if minPasses <= 0 {
		minPasses = 1
	}
	run := &SweepRun{Scores: Scores{}, Defaults: o.PassSize <= 0 && o.Iterations <= 0}
	var measured time.Duration
	for k := 0; ; k++ {
		if k >= minPasses && measured.Seconds() >= o.Seconds {
			break
		}
		pop, err := SweepPass(o.Workload, PassSeed(o.Seed, k), o.PassSize)
		if err != nil {
			return nil, err
		}
		p, err := RunPass(ctx, o.Workload, PassSeed(o.Seed, k), o.Iterations, pop)
		if err != nil {
			return nil, err
		}
		measured += p.Wall
		run.Attempted += p.Contracts
		run.Failed += p.Failed
		if k == 0 && run.Defaults {
			if want, ok := Pinned[o.Workload][strconv.FormatInt(o.Seed, 10)]; ok && want != p.Digest {
				// A wrong digest fails every contract of the pass: the
				// run cannot say which verdicts moved.
				run.Mismatch = true
				run.Failed += p.Contracts - p.Failed
			}
		}
		run.Scores.Merge(p.Scores)
		run.Passes = append(run.Passes, p)
	}
	run.LiveHeap = LiveHeapMB()
	return run, nil
}

// BelowFloor lists the scores of the run that fall below the workload's
// floor. Runs at other than the default sizes are not checked.
func (s *SweepRun) BelowFloor(workload string) []string {
	if !s.Defaults {
		return nil
	}
	f := Floors[workload]
	var out []string
	if f1 := s.Scores.Total().F1(); f1 < f.F1 {
		out = append(out, fmt.Sprintf("findings_f1 %.4f < %.4f", f1, f.F1))
	}
	classes := make([]string, 0, len(f.Recall))
	for class := range f.Recall {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		if r := s.Scores[class].Recall(); r < f.Recall[class] {
			out = append(out, fmt.Sprintf("%s recall %.4f < %.4f", class, r, f.Recall[class]))
		}
	}
	return out
}

// Report turns a sweep into the end-to-end metrics.
func (s *SweepRun) Report(workload string) *Result {
	var contracts int
	var wall time.Duration
	var rt Runtime
	var jobs []time.Duration
	var setups []float64
	for _, p := range s.Passes {
		contracts += p.Contracts
		wall += p.Wall
		rt = rt.Add(p.Runtime)
		jobs = append(jobs, p.Jobs...)
		setups = append(setups, p.Setup.Seconds())
	}
	ms := Millis(jobs)
	r := &Result{Attempted: s.Attempted, Failed: s.Failed}
	r.Correct = s.Failed == 0 && len(s.BelowFloor(workload)) == 0
	r.Set("contracts_per_s", float64(contracts)/wall.Seconds(), "1/s")
	r.Set("job_p50_ms", Quantile(ms, 0.5), "ms")
	r.Set("job_p90_ms", Quantile(ms, 0.9), "ms")
	r.Set("alloc_mb_per_contract", rt.AllocBytes/1e6/float64(contracts), "MB")
	r.Set("live_heap_mb", s.LiveHeap, "MB")
	r.Set("setup_s", Quantile(setups, 0.5), "s")
	return r
}
