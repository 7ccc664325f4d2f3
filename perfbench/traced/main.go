// Command traced is the benchmark's traced run (--trace 1). It works in
// rounds, each on a fresh sample of the workload's contracts, and runs in
// every round, one leg after another:
//
//  1. the facade untraced, at the timed run's two workers — the
//     reference for the tracing overhead, the worker-busy share and the
//     runtime counters;
//  2. the real code path (decode, fuzz.New, RunPhase, Finish) with outer
//     spans, at two workers; its findings must equal leg 1's;
//  3. the stage driver, serially, with inner spans around each layer's
//     public functions and exact allocation counts.
//
// Rounds repeat until --seconds have passed (half of them on daemon-mix,
// which then runs the daemon loop with HTTP-side spans and /stats for the
// other half). It prints every per-layer metric as the last line of its
// output and writes the spans to .bench_build/spans/<workload>-<seed>.json.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	wasai "repro"
	"repro/perfbench/stage"
	"repro/perfbench/workload"
)

// sizes scales the traced run; the self-test shrinks it.
type sizes struct {
	sweepContracts  int // sampled contracts of a sweep pass (0 = all)
	iterations      int // per-contract fuzzing budget (0 = the paper's 240)
	daemonSpecs     int // distinct daemon-mix specs sampled per round
	daemonContracts int // contracts per daemon-mix spec (0 = the workload's 8)
	daemonMinJobs   int // daemon-leg jobs run even past its deadline
	driverContracts int // contracts per round the stage driver runs
	driverTxs       int // transactions per contract in the stage driver
	driverInst      int // timed instantiations per contract
}

// defaultSizes: a quarter of the fuzzer's 240 iterations per contract
// keeps the serial stage driver near the length of the two-worker legs,
// and eight instantiations give a stable mean.
var defaultSizes = sizes{daemonSpecs: 4, driverContracts: 32, driverTxs: 60, driverInst: 8}

func main() {
	name := flag.String("workload", "", "workload: wild-sweep, blackbox-sweep or daemon-mix")
	seed := flag.Int64("seed", workload.DefaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 1, "must be 1")
	flag.Parse()
	if *trace != 1 {
		fmt.Fprintln(os.Stderr, "traced: run with --trace 1; the timed run is perfbench's main package")
		os.Exit(2)
	}
	res, spans, err := run(*name, *seed, *seconds, defaultSizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traced: %v\n", err)
		os.Exit(1)
	}
	dir := filepath.Join(".bench_build", "spans")
	err = os.MkdirAll(dir, 0o755)
	if err == nil {
		err = workload.WriteSpans(filepath.Join(dir, fmt.Sprintf("%s-%d.json", *name, *seed)), spans)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "traced: write spans: %v\n", err)
		os.Exit(1)
	}
	if err := res.Write(os.Stdout); err != nil {
		os.Exit(1)
	}
}

// sampled is one sampled contract with the fuzzing seed its job gets.
type sampled struct {
	workload.Contract
	fuzzSeed int64
}

// sampler hands out the rounds' samples: successive sweep passes, or the
// populations of the next distinct daemon-mix specs.
type sampler struct {
	name string
	seed int64
	sz   sizes
	pass int
	seq  *workload.SpecSequence
	seen map[int64]bool
}

func (s *sampler) next() ([]sampled, error) {
	var out []sampled
	switch s.name {
	case workload.WildSweep, workload.BlackboxSweep:
		ps := workload.PassSeed(s.seed, s.pass)
		s.pass++
		pop, err := workload.SweepPass(s.name, ps, s.sz.sweepContracts)
		if err != nil {
			return nil, err
		}
		for i, c := range pop {
			out = append(out, sampled{c, ps + int64(i)})
		}
		return out, nil
	case workload.DaemonMix:
		if s.seq == nil {
			s.seq, s.seen = workload.NewSpecSequence(s.seed), map[int64]bool{}
		}
		for specs := 0; specs < s.sz.daemonSpecs; {
			spec := s.seq.Next()
			if s.seen[spec] {
				continue
			}
			s.seen[spec] = true
			specs++
			pop, err := workload.WildPopulation(spec, workload.Spec("", spec, s.sz.daemonContracts, 0).Contracts)
			if err != nil {
				return nil, err
			}
			for i, c := range pop {
				out = append(out, sampled{c, spec + int64(i)})
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", s.name, workload.Names)
}

// totals accumulates the rounds of one traced run.
type totals struct {
	contracts             int
	failed                int
	facadeWall, busy      time.Duration
	outerWall             time.Duration
	rt                    workload.Runtime
	outcomes              []*stage.FuzzOutcome
	scores                workload.Scores
	driver                stage.Stats
	driven                int // contracts the stage driver ran
	stageTotal, loopTotal time.Duration
}

func run(name string, seed int64, seconds float64, sz sizes) (*workload.Result, []workload.Span, error) {
	ctx := context.Background()
	rec := &workload.Recorder{}
	smp := &sampler{name: name, seed: seed, sz: sz}
	budget := seconds
	if name == workload.DaemonMix {
		budget = seconds / 2
	}
	tot := totals{scores: workload.Scores{}}
	start := time.Now()
	for tot.contracts == 0 || time.Since(start).Seconds() < budget {
		batch, err := smp.next()
		if err != nil {
			return nil, nil, err
		}
		if err := round(ctx, name, batch, sz, rec, &tot); err != nil {
			return nil, nil, err
		}
	}

	res := &workload.Result{Attempted: tot.contracts, Failed: tot.failed}
	n := float64(tot.contracts)
	res.Set("campaign.worker_busy_share", tot.busy.Seconds()/(workload.Workers*tot.facadeWall.Seconds()), "ratio")
	res.Set("runtime.mallocs_per_contract", tot.rt.AllocObjects/n, "count")
	res.Set("runtime.gc_cpu_share", tot.rt.GCShare(), "ratio")
	res.Set("bench.trace_overhead", tot.facadeWall.Seconds()/tot.outerWall.Seconds(), "ratio")
	res.Set("findings_f1", tot.scores.Total().F1(), "ratio")

	var iters, cov, seeds, replayErr, inst, queries, fast, satCalls, conflicts, unknowns float64
	for _, o := range tot.outcomes {
		r := o.Result
		iters += float64(r.Iterations)
		cov += float64(r.Coverage)
		seeds += float64(r.AdaptiveSeeds)
		replayErr += float64(r.ReplayErrors)
		inst += float64(o.Instantiations)
		queries += float64(r.SolverStats.Queries)
		fast += float64(r.SolverStats.FastPathHits)
		satCalls += float64(r.SolverStats.SATCalls)
		conflicts += float64(r.SolverStats.SATConflicts)
		unknowns += float64(r.SolverStats.Unknowns)
	}
	res.Set("fuzz.iterations", iters/n, "count")
	res.Set("fuzz.coverage_branches", cov/n, "count")
	res.Set("fuzz.adaptive_seeds", seeds/n, "count")
	res.Set("fuzz.replay_errors", replayErr/n, "count")
	res.Set("exec.instantiations_per_contract", inst/n, "count")
	res.Set("symbolic.queries", queries/n, "count")
	res.Set("symbolic.fastpath_share", ratio(fast, queries), "ratio")
	res.Set("symbolic.sat_calls", satCalls/n, "count")
	res.Set("symbolic.sat_conflicts", conflicts/n, "count")
	res.Set("symbolic.unknowns", unknowns/n, "count")
	res.Set("symbolic.sat_share", ratio(seeds, queries), "ratio")

	st := tot.driver
	txs := float64(st.Txs)
	res.Set("instrument.hook_sites", float64(st.HookSites)/float64(tot.driven), "count")
	res.Set("chain.applies_per_tx", float64(st.Applies)/txs, "count")
	res.Set("chain.db_ops_per_tx", float64(st.DBOps)/txs, "count")
	res.Set("trace.events_per_tx", float64(st.Events)/txs, "count")
	res.Set("exec.instantiate_alloc_kb", ratio(float64(st.InstAlloc), float64(st.Instantiations))/1e3, "KB")
	res.Set("symexec.steps_per_trace", ratio(float64(st.Steps), float64(st.Traces)), "count")
	res.Set("symexec.nodes_per_trace", ratio(float64(st.Nodes), float64(st.Traces)), "count")
	res.Set("symexec.replay_alloc_kb", ratio(float64(st.ReplayAlloc), float64(st.Traces+st.ReplayFailures))/1e3, "KB")
	res.Set("symexec.flip_queries_per_trace", ratio(float64(st.FlipQueries), float64(st.Traces)), "count")
	res.Set("bench.driver_fidelity", ratio(tot.stageTotal.Seconds(), tot.loopTotal.Seconds()), "ratio")

	// The serving layers read zero outside daemon-mix: no other workload
	// runs them.
	for _, m := range []string{"serve.submit_ms", "serve.queue_wait_ms", "serve.run_ms"} {
		res.Set(m, 0, "ms")
	}
	for _, m := range []string{"serve.shed", "store.writes", "store.hits", "wal.appends", "wal.syncs"} {
		res.Set(m, 0, "count")
	}
	res.Set("memo.solver_hit_rate", 0, "ratio")
	if name == workload.DaemonMix {
		if err := daemonLeg(seed, seconds/2, sz, rec, res); err != nil {
			return nil, nil, err
		}
	}

	// Span names are unique to their layer, so one pass over every span
	// gives each timed call's mean self time.
	spans := rec.Spans()
	self := workload.SelfByName(spans)
	for metric, span := range map[string]string{
		"wasm.decode_us":            "wasm.decode",
		"instrument.us":             "instrument",
		"chain.push_us":             "chain.push",
		"exec.instantiate_us":       "exec.instantiate",
		"scanner.observe_us_per_tx": "scanner.observe",
		"symexec.replay_us":         "symexec.replay",
		"symbolic.solve_us":         "symbolic.solve",
	} {
		res.Set(metric, self[span], "us")
	}
	for _, phase := range []string{"fuzz.new", "fuzz.loop", "fuzz.finish"} {
		res.Set(phase+"_ms", self[phase]/1e3, "ms")
	}
	res.Correct = res.Failed == 0
	return res, spans, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// round runs the three legs on one sample and adds them to tot. A
// contract's outer and driver spans share one trace ID.
func round(ctx context.Context, name string, batch []sampled, sz sizes, rec *workload.Recorder, tot *totals) error {
	base := tot.contracts
	tot.contracts += len(batch)
	traces := make([]int64, len(batch))
	for i := range traces {
		traces[i] = rec.NewTrace()
	}
	facadeDigest, err := facadeLeg(ctx, name, batch, sz, tot)
	if err != nil {
		return err
	}
	loops, outerDigest, err := outerLeg(ctx, name, batch, sz, rec, tot, traces)
	if err != nil {
		return err
	}
	if outerDigest != facadeDigest {
		fmt.Fprintf(os.Stderr, "traced: traced findings digest %s differs from the facade's %s\n", outerDigest, facadeDigest)
		tot.failed += len(batch)
	}
	return driverLeg(name, batch, loops, sz, rec, tot, base, traces)
}

// facadeLeg runs the sample untraced through the facade and returns its
// findings digest.
func facadeLeg(ctx context.Context, name string, batch []sampled, sz sizes, tot *totals) (string, error) {
	bcfg := workload.BatchConfig(name, 0, sz.iterations)
	jobs := make([]wasai.BatchJob, len(batch))
	for i, c := range batch {
		// Each contract keeps the fuzzing seed its timed-run job gets.
		jcfg := bcfg.Config
		jcfg.Seed = c.fuzzSeed
		jobs[i] = wasai.BatchJob{Name: c.Name, Wasm: c.Wasm, ABIJSON: c.ABIJSON, Config: &jcfg}
	}
	before := workload.ReadRuntime()
	start := time.Now()
	rep, err := wasai.AnalyzeBatch(ctx, jobs, bcfg)
	if err != nil {
		return "", err
	}
	tot.facadeWall += time.Since(start)
	tot.rt = tot.rt.Add(workload.ReadRuntime().Sub(before))
	var d workload.Digest
	for i, br := range rep.Jobs {
		tot.busy += br.Duration
		if br.Err != nil || br.Report == nil {
			tot.failed++
			d.AddFailed(batch[i].Name)
			continue
		}
		d.Add(batch[i].Name, br.Report)
	}
	return d.Sum(), nil
}

// outerLeg runs the sample on the real code path at the timed run's
// worker count, one root span per contract, and returns each contract's
// fuzz.loop time and the findings digest.
func outerLeg(ctx context.Context, name string, batch []sampled, sz sizes, rec *workload.Recorder, tot *totals, traces []int64) ([]time.Duration, string, error) {
	cfg := stage.FuzzConfig{
		Iterations:      wasai.DefaultConfig().Iterations,
		SolverConflicts: wasai.DefaultConfig().SolverConflicts,
		Feedback:        workload.Feedback(name),
	}
	if sz.iterations > 0 {
		cfg.Iterations = sz.iterations
	}
	outcomes := make([]*stage.FuzzOutcome, len(batch))
	loops := make([]time.Duration, len(batch))
	errs := make([]error, len(batch))
	next := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workload.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := batch[i]
				begin := time.Now()
				var spans []workload.Span
				obs := func(name string, s, e time.Time) {
					spans = append(spans, workload.Span{Name: name, Start: s, End: e})
				}
				ccfg := cfg
				ccfg.Seed = c.fuzzSeed
				outcomes[i], errs[i] = stage.Fuzz(ctx, c.Wasm, c.ABIJSON, ccfg, obs)
				root := rec.Add(traces[i], "contract", begin, time.Now(), 0)
				for _, s := range spans {
					rec.Add(traces[i], s.Name, s.Start, s.End, root)
					if s.Name == "fuzz.loop" {
						loops[i] = s.Duration()
					}
				}
			}
		}()
	}
	for i := range batch {
		next <- i
	}
	close(next)
	wg.Wait()
	tot.outerWall += time.Since(start)
	var d workload.Digest
	for i, o := range outcomes {
		if errs[i] != nil {
			return nil, "", fmt.Errorf("contract %s: %w", batch[i].Name, errs[i])
		}
		d.Add(batch[i].Name, o.Report)
		tot.scores.Score(batch[i].Truth, o.Report)
	}
	tot.outcomes = append(tot.outcomes, outcomes...)
	return loops, d.Sum(), nil
}

// driverLeg runs the stage driver on the first contracts of the sample and
// accumulates its counts and the driver-fidelity sums.
func driverLeg(name string, batch []sampled, loops []time.Duration, sz sizes, rec *workload.Recorder, tot *totals, base int, traces []int64) error {
	outcomes := tot.outcomes[base:]
	for i := 0; i < min(len(batch), sz.driverContracts); i++ {
		var spans []workload.Span
		obs := func(name string, s, e time.Time) {
			spans = append(spans, workload.Span{Name: name, Start: s, End: e})
		}
		begin := time.Now()
		st, err := stage.Run(outcomes[i].Module, outcomes[i].ABI, stage.Config{
			Txs:             sz.driverTxs,
			Instantiations:  sz.driverInst,
			SolverConflicts: wasai.DefaultConfig().SolverConflicts,
			Feedback:        workload.Feedback(name),
			Seed:            batch[i].fuzzSeed,
		}, obs)
		if err != nil {
			return fmt.Errorf("contract %s: %w", batch[i].Name, err)
		}
		root := rec.Add(traces[i], "stage", begin, time.Now(), 0)
		var perTx time.Duration
		for _, s := range spans {
			rec.Add(traces[i], s.Name, s.Start, s.End, root)
			switch s.Name {
			case "chain.push", "scanner.observe", "symexec.replay", "symbolic.solve":
				perTx += s.Duration()
			}
		}
		tot.stageTotal += perTx * time.Duration(outcomes[i].Result.Iterations) / time.Duration(st.Txs)
		tot.loopTotal += loops[i]
		tot.driven++
		d := &tot.driver
		d.HookSites += st.HookSites
		d.Txs += st.Txs
		d.Applies += st.Applies
		d.DBOps += st.DBOps
		d.Events += st.Events
		d.Traces += st.Traces
		d.ReplayFailures += st.ReplayFailures
		d.Steps += st.Steps
		d.Nodes += st.Nodes
		d.FlipQueries += st.FlipQueries
		d.ReplayAlloc += st.ReplayAlloc
		d.Instantiations += st.Instantiations
		d.InstAlloc += st.InstAlloc
	}
	return nil
}

// daemonLeg runs the daemon mix with HTTP-side spans and reads the serving
// layers' counters from /stats.
func daemonLeg(seed int64, seconds float64, sz sizes, rec *workload.Recorder, res *workload.Result) error {
	d, err := workload.RunDaemonMix(workload.DaemonOptions{
		Seed:       seed,
		Seconds:    seconds,
		Contracts:  sz.daemonContracts,
		Iterations: sz.iterations,
		MinJobs:    sz.daemonMinJobs,
		Spans:      rec,
	})
	if err != nil {
		return err
	}
	res.Attempted += d.Attempted
	res.Failed += d.Failed
	var submit, queued, runT float64
	for _, j := range d.Jobs {
		submit += float64(j.Submit) / float64(time.Millisecond)
		queued += float64(j.Queued) / float64(time.Millisecond)
		runT += float64(j.Run) / float64(time.Millisecond)
	}
	jobs := float64(max(len(d.Jobs), 1))
	res.Set("serve.submit_ms", submit/jobs, "ms")
	res.Set("serve.queue_wait_ms", queued/jobs, "ms")
	res.Set("serve.run_ms", runT/jobs, "ms")
	res.Set("serve.shed", float64(d.Stats.Shed), "count")
	m := d.Stats.Memo
	hits := float64(m.SolverHits + m.SolverUnsatHits)
	res.Set("memo.solver_hit_rate", ratio(hits, hits+float64(m.SolverMisses)), "ratio")
	if d.Stats.Store != nil {
		res.Set("store.writes", float64(d.Stats.Store.Writes), "count")
		res.Set("store.hits", float64(d.Stats.Store.Hits), "count")
	}
	res.Set("wal.appends", float64(d.Stats.Wal.Appends), "count")
	res.Set("wal.syncs", float64(d.Stats.Wal.Syncs), "count")
	// The daemon process is what a daemon user runs: its runtime counters
	// replace the facade leg's.
	res.Set("runtime.mallocs_per_contract", d.Runtime.AllocObjects/float64(max(d.Contracts, 1)), "count")
	res.Set("runtime.gc_cpu_share", d.Runtime.GCShare(), "ratio")
	return nil
}
