package bench

import (
	"strings"
	"testing"

	"repro/internal/contractgen"
	"repro/internal/fuzz"
)

func TestCountsMetrics(t *testing.T) {
	c := Counts{TP: 8, FP: 2, TN: 9, FN: 1}
	if got := c.Precision(); got != 0.8 {
		t.Errorf("precision = %v", got)
	}
	if got := c.Recall(); got < 0.888 || got > 0.889 {
		t.Errorf("recall = %v", got)
	}
	if f1 := c.F1(); f1 < 0.84 || f1 > 0.85 {
		t.Errorf("f1 = %v", f1)
	}
	var zero Counts
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 {
		t.Error("zero counts must yield zero metrics, not NaN")
	}
}

func TestCountsAdd(t *testing.T) {
	var c Counts
	c.Add(true, true)
	c.Add(true, false)
	c.Add(false, true)
	c.Add(false, false)
	if c.TP != 1 || c.FN != 1 || c.FP != 1 || c.TN != 1 {
		t.Errorf("counts: %+v", c)
	}
}

func TestCountsRates(t *testing.T) {
	for _, tc := range []struct {
		c        Counts
		p, r, f1 string
	}{
		{Counts{TP: 8, FP: 2, TN: 9, FN: 1}, "80.0%", "88.9%", "84.2%"},
		{Counts{TP: 0, FP: 0, TN: 9, FN: 0}, "n/a", "n/a", "n/a"},   // nothing flagged, no positives
		{Counts{TP: 0, FP: 3, TN: 9, FN: 0}, "0.0%", "n/a", "0.0%"}, // no positives
		{Counts{TP: 0, FP: 0, TN: 9, FN: 2}, "n/a", "0.0%", "0.0%"}, // nothing flagged
		{Counts{TP: 4, FP: 0, TN: 0, FN: 0}, "100.0%", "100.0%", "100.0%"},
	} {
		p, r, f1 := tc.c.Rates()
		if p != tc.p || r != tc.r || f1 != tc.f1 {
			t.Errorf("%+v.Rates() = %q %q %q, want %q %q %q", tc.c, p, r, f1, tc.p, tc.r, tc.f1)
		}
	}
	// The RQ4 renderer prints n/a for a class without ground-truth
	// positives or flags, never a 0.0% that reads like a measured miss.
	out := RenderWild(&WildResult{
		Total:            3,
		PerClass:         map[contractgen.Class]int{},
		PerClassAccuracy: map[contractgen.Class]Counts{contractgen.ClassStateTamper: {TN: 3}},
	})
	if !strings.Contains(out, "P=n/a R=n/a") || strings.Contains(out, "P=0.0% R=0.0%") {
		t.Errorf("RQ4 render prints numbers for undefined rates:\n%s", out)
	}
}

func TestTotalMerges(t *testing.T) {
	per := map[contractgen.Class]Counts{
		contractgen.ClassFakeEOS:  {TP: 1, FP: 2},
		contractgen.ClassRollback: {TN: 3, FN: 4},
	}
	tot := Total(per)
	if tot.TP != 1 || tot.FP != 2 || tot.TN != 3 || tot.FN != 4 {
		t.Errorf("total: %+v", tot)
	}
}

func TestBuildGroundTruthBalanced(t *testing.T) {
	ds, err := BuildGroundTruth(Table4Counts, Options{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	perClass := map[contractgen.Class][2]int{}
	for _, s := range ds.Samples {
		c := perClass[s.Class]
		if s.Truth {
			c[0]++
		} else {
			c[1]++
		}
		perClass[s.Class] = c
		if s.Contract == nil || s.Contract.Module == nil {
			t.Fatalf("sample %d has no contract", s.ID)
		}
	}
	for _, class := range contractgen.Classes {
		c := perClass[class]
		if c[0] == 0 || c[1] == 0 {
			t.Errorf("%s: unbalanced %d/%d", class, c[0], c[1])
		}
		if c[0] != c[1] {
			t.Errorf("%s: halves differ %d/%d", class, c[0], c[1])
		}
	}
}

func TestBuildGroundTruthDeterministic(t *testing.T) {
	a, err := BuildGroundTruth(Table4Counts, Options{Scale: 0.02, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildGroundTruth(Table4Counts, Options{Scale: 0.02, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("sizes differ")
	}
	for i := range a.Samples {
		if a.Samples[i].Truth != b.Samples[i].Truth ||
			a.Samples[i].Contract.Spec.Seed != b.Samples[i].Contract.Spec.Seed {
			t.Fatalf("sample %d differs across identical seeds", i)
		}
	}
}

func TestObfuscatePreservesLabels(t *testing.T) {
	ds, err := BuildGroundTruth(Table4Counts, Options{Scale: 0.02, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	obf, err := Obfuscate(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(obf.Samples) != len(ds.Samples) {
		t.Fatal("sample count changed")
	}
	for i := range ds.Samples {
		if obf.Samples[i].Truth != ds.Samples[i].Truth {
			t.Fatalf("label flipped at %d", i)
		}
		// The obfuscated module must actually differ (extra function).
		if len(obf.Samples[i].Contract.Module.Code) <= len(ds.Samples[i].Contract.Module.Code) {
			t.Errorf("sample %d not obfuscated", i)
		}
	}
}

func TestBuildVerificationAvoidsBranchCollisions(t *testing.T) {
	ds, err := BuildVerification(Table6Counts, Options{Scale: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Samples {
		used := map[string]bool{}
		for _, br := range s.Contract.Spec.Branches {
			used[br.Field] = true
		}
		for _, vc := range s.Contract.Spec.Verification {
			if used[vc.Field] {
				t.Fatalf("sample %d: verification on branch field %q", s.ID, vc.Field)
			}
			used[vc.Field] = true
		}
	}
}

func TestEvaluateAccuracyEOSAFESmoke(t *testing.T) {
	ds, err := BuildGroundTruth(Table4Counts, Options{Scale: 0.02, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateAccuracy(ds, []Tool{ToolEOSAFE}, DefaultEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Tool != ToolEOSAFE {
		t.Fatalf("results: %+v", res)
	}
	if _, ok := res[0].PerClass[contractgen.ClassBlockinfoDep]; ok {
		t.Error("EOSAFE should skip BlockinfoDep")
	}
	table := RenderAccuracyTable("smoke", ds, res)
	if !strings.Contains(table, "Fake EOS") || !strings.Contains(table, "Total") {
		t.Errorf("render missing rows:\n%s", table)
	}
}

func TestToolSupportsMatrix(t *testing.T) {
	if toolSupports(ToolEOSFuzzer, contractgen.ClassMissAuth) {
		t.Error("EOSFuzzer does not support MissAuth")
	}
	if !toolSupports(ToolEOSFuzzer, contractgen.ClassBlockinfoDep) {
		t.Error("EOSFuzzer claims BlockinfoDep support")
	}
	if toolSupports(ToolEOSAFE, contractgen.ClassBlockinfoDep) {
		t.Error("EOSAFE does not support BlockinfoDep")
	}
	for _, c := range contractgen.Classes {
		if !toolSupports(ToolWASAI, c) {
			t.Errorf("WASAI must support %s", c)
		}
	}
}

func TestScaledFloor(t *testing.T) {
	o := Options{Scale: 0.001}
	if got := o.scaled(1000); got != 4 {
		t.Errorf("scaled floor = %d, want 4", got)
	}
	o = Options{Scale: 1}
	if got := o.scaled(254); got != 254 {
		t.Errorf("full scale = %d, want 254", got)
	}
	// Odd results are evened for balanced halves.
	o = Options{Scale: 0.05}
	if got := o.scaled(418); got%2 != 0 {
		t.Errorf("scaled(418) = %d, want even", got)
	}
}

func TestRenderCoverageSVG(t *testing.T) {
	series := []CoverageSeries{
		{Tool: ToolWASAI, Points: []fuzz.CoveragePoint{{Iteration: 10, Branches: 100}, {Iteration: 20, Branches: 180}}},
		{Tool: ToolEOSFuzzer, Points: []fuzz.CoveragePoint{{Iteration: 10, Branches: 80}, {Iteration: 20, Branches: 95}}},
	}
	svg := RenderCoverageSVG(series)
	for _, want := range []string{"<svg", "polyline", "WASAI", "EOSFuzzer", "distinct branches", "</svg>"} {
		if !strings.Contains(svg, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	// Degenerate input still yields valid (empty) SVG.
	if out := RenderCoverageSVG(nil); !strings.Contains(out, "<svg") {
		t.Errorf("empty series: %q", out)
	}
}

func TestEvaluateCoverageSmoke(t *testing.T) {
	cfg := CoverageConfig{NumContracts: 3, Iterations: 30, Seed: 2, SamplePoints: 5}
	series, err := EvaluateCoverage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Tool != ToolWASAI || series[1].Tool != ToolEOSFuzzer {
		t.Fatalf("series: %+v", series)
	}
	for _, s := range series {
		if len(s.Points) == 0 || s.Points[len(s.Points)-1].Branches == 0 {
			t.Errorf("%s: empty coverage curve", s.Tool)
		}
	}
	out := RenderCoverage(series)
	if !strings.Contains(out, "WASAI") || !strings.Contains(out, "ratio") {
		t.Errorf("render: %q", out)
	}
}

func TestEvaluateWildSmoke(t *testing.T) {
	res, err := EvaluateWild(WildConfig{NumContracts: 12, FuzzIterations: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 12 {
		t.Fatalf("total = %d", res.Total)
	}
	if res.Flagged == 0 {
		t.Error("nothing flagged in a population that is ~70% vulnerable")
	}
	if res.Flagged != res.Abandoned+res.StillOperating {
		t.Errorf("lifecycle does not partition flagged: %d != %d+%d",
			res.Flagged, res.Abandoned, res.StillOperating)
	}
	out := RenderWild(res)
	if !strings.Contains(out, "flagged vulnerable") {
		t.Errorf("render: %q", out)
	}
}
