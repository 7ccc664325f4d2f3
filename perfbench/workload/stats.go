package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	wasai "repro"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Set records a metric.
func (r *Result) Set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]Metric{}
	}
	r.Metrics[name] = Metric{Value: value, Unit: unit}
}

// Write prints the result as one JSON line.
func (r *Result) Write(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// Quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). Zero for an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// Millis converts durations to milliseconds.
func Millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// Runtime is a snapshot of the process-wide runtime counters.
type Runtime struct {
	AllocBytes   float64
	AllocObjects float64
	GCCPU        float64
	IdleCPU      float64
	TotalCPU     float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// ReadRuntime samples the runtime counters. The CPU classes are updated
// by the runtime at GC boundaries, which is accurate enough over a run of
// many GC cycles.
func ReadRuntime() Runtime {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return Runtime{AllocBytes: f(0), AllocObjects: f(1), GCCPU: f(2), IdleCPU: f(3), TotalCPU: f(4)}
}

// Sub returns the counter deltas r - prev.
func (r Runtime) Sub(prev Runtime) Runtime {
	return Runtime{
		AllocBytes:   r.AllocBytes - prev.AllocBytes,
		AllocObjects: r.AllocObjects - prev.AllocObjects,
		GCCPU:        r.GCCPU - prev.GCCPU,
		IdleCPU:      r.IdleCPU - prev.IdleCPU,
		TotalCPU:     r.TotalCPU - prev.TotalCPU,
	}
}

// Add accumulates deltas.
func (r Runtime) Add(o Runtime) Runtime {
	return Runtime{
		AllocBytes:   r.AllocBytes + o.AllocBytes,
		AllocObjects: r.AllocObjects + o.AllocObjects,
		GCCPU:        r.GCCPU + o.GCCPU,
		IdleCPU:      r.IdleCPU + o.IdleCPU,
		TotalCPU:     r.TotalCPU + o.TotalCPU,
	}
}

// GCShare is the GC's share of the CPU time the process used (the
// runtime's estimate: available CPU minus idle) in the delta.
func (r Runtime) GCShare() float64 {
	used := r.TotalCPU - r.IdleCPU
	if used <= 0 {
		return 0
	}
	return r.GCCPU / used
}

// LiveHeapMB forces a collection and returns the live heap it marked, in
// MB (10^6 bytes).
func LiveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// Digest is the findings digest of a population: one line per contract,
// in population order, with each class verdict from Report.Findings.
type Digest struct{ lines []string }

// Add appends one contract's findings.
func (d *Digest) Add(name string, rep *wasai.Report) {
	var b strings.Builder
	b.WriteString(name)
	for _, f := range rep.Findings {
		v := 0
		if f.Vulnerable {
			v = 1
		}
		fmt.Fprintf(&b, "|%s=%d", f.Class, v)
	}
	d.lines = append(d.lines, b.String())
}

// AddFailed appends a contract that produced no report.
func (d *Digest) AddFailed(name string) { d.lines = append(d.lines, name+"|failed") }

// Sum returns the hex SHA-256 of the digest lines.
func (d *Digest) Sum() string {
	h := sha256.Sum256([]byte(strings.Join(d.lines, "\n")))
	return hex.EncodeToString(h[:])
}

// Counts are confusion counts over (contract, class) pairs.
type Counts struct{ TP, FP, FN, TN int }

func (c *Counts) add(want, got bool) {
	switch {
	case want && got:
		c.TP++
	case want:
		c.FN++
	case got:
		c.FP++
	default:
		c.TN++
	}
}

// Merge adds o into c.
func (c *Counts) Merge(o Counts) {
	c.TP += o.TP
	c.FP += o.FP
	c.FN += o.FN
	c.TN += o.TN
}

// F1 is the harmonic mean of precision and recall (0 when undefined).
func (c Counts) F1() float64 {
	if 2*c.TP+c.FP+c.FN == 0 {
		return 0
	}
	return float64(2*c.TP) / float64(2*c.TP+c.FP+c.FN)
}

// Recall is TP/(TP+FN), 1 when the class had no vulnerable sample.
func (c Counts) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Scores are confusion counts per scored class.
type Scores map[string]Counts

// Score adds a report's verdicts on the contract's scored classes.
func (s Scores) Score(truth map[string]bool, rep *wasai.Report) {
	for class, want := range truth {
		got := false
		if f, ok := rep.Class(class); ok {
			got = f.Vulnerable
		}
		c := s[class]
		c.add(want, got)
		s[class] = c
	}
}

// Merge adds o into s.
func (s Scores) Merge(o Scores) {
	for class, oc := range o {
		c := s[class]
		c.Merge(oc)
		s[class] = c
	}
}

// Total sums the counts of every class.
func (s Scores) Total() Counts {
	var t Counts
	for _, c := range s {
		t.Merge(c)
	}
	return t
}
