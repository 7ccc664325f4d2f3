package stage

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/perfbench/workload"
)

// TestSameSeedCountersRepeat runs the same contracts twice on one
// goroutine and requires the findings and every deterministic counter —
// instantiations, replay steps and nodes, solver counts — to repeat
// exactly. Allocated bytes depend on map layouts, which Go seeds randomly
// per map, so they must repeat to within 5%.
func TestSameSeedCountersRepeat(t *testing.T) {
	pop, err := workload.WildPopulation(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	noop := func(string, time.Time, time.Time) {}
	type record struct {
		Findings       string
		Solver         any
		Coverage       int
		Instantiations int64
		FuzzAlloc      uint64
		Driver         Stats
	}
	once := func(c workload.Contract) record {
		var d workload.Digest
		runtime.GC()
		before := allocated()
		o, err := Fuzz(context.Background(), c.Wasm, c.ABIJSON, FuzzConfig{Iterations: 48, SolverConflicts: 50_000, Feedback: true, Seed: 9}, noop)
		if err != nil {
			t.Fatal(err)
		}
		alloc := allocated() - before
		d.Add(c.Name, o.Report)
		st, err := Run(o.Module, o.ABI, Config{Txs: 24, Instantiations: 2, SolverConflicts: 50_000, Feedback: true, Seed: 9}, noop)
		if err != nil {
			t.Fatal(err)
		}
		return record{d.Sum(), o.Result.SolverStats, o.Result.Coverage, o.Instantiations, alloc, *st}
	}
	near := func(x, y uint64) bool { return x <= y+y/20 && y <= x+x/20 }
	for _, c := range pop {
		a, b := once(c), once(c)
		for _, p := range [][2]uint64{
			{a.FuzzAlloc, b.FuzzAlloc}, {a.Driver.ReplayAlloc, b.Driver.ReplayAlloc}, {a.Driver.InstAlloc, b.Driver.InstAlloc},
		} {
			if !near(p[0], p[1]) {
				t.Errorf("%s: allocation differs by more than 5%%: %d and %d bytes", c.Name, p[0], p[1])
			}
		}
		for _, r := range []*record{&a, &b} {
			r.FuzzAlloc, r.Driver.ReplayAlloc, r.Driver.InstAlloc = 0, 0, 0
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: counters differ between same-seed runs:\n%+v\n%+v", c.Name, a, b)
		}
		if a.Instantiations == 0 || a.Driver.Txs == 0 || a.Driver.Instantiations != 2 {
			t.Errorf("%s: counters not collected: %+v", c.Name, a)
		}
	}
}
