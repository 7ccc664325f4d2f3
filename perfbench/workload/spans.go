package workload

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Spans of one contract or job share
// a TraceID from Recorder.NewTrace; Parent is the ID of the span that
// caused it (0 for a root).
type Span struct {
	ID      int64     `json:"id"`
	TraceID int64     `json:"trace"`
	Parent  int64     `json:"parent,omitempty"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Recorder keeps spans in memory until the run ends. Safe for concurrent
// use.
type Recorder struct {
	mu     sync.Mutex
	spans  []Span
	traces int64
}

// NewTrace returns a trace ID that no earlier call returned.
func (r *Recorder) NewTrace() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces++
	return r.traces
}

// Add records a span and returns its ID.
func (r *Recorder) Add(trace int64, name string, start, end time.Time, parent int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, TraceID: trace, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// Spans returns a copy of every recorded span.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover.
func SelfTimes(spans []Span) map[int64]time.Duration {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		var covered time.Duration
		var curStart, curEnd time.Time
		for _, k := range kids {
			ks, ke := k.Start, k.End
			if ks.Before(s.Start) {
				ks = s.Start
			}
			if ke.After(s.End) {
				ke = s.End
			}
			if !ke.After(ks) {
				continue
			}
			if curEnd.IsZero() || ks.After(curEnd) {
				covered += curEnd.Sub(curStart)
				curStart, curEnd = ks, ke
			} else if ke.After(curEnd) {
				curEnd = ke
			}
		}
		covered += curEnd.Sub(curStart)
		out[s.ID] = s.Duration() - covered
	}
	return out
}

// SelfByName averages self time per span name, in microseconds.
func SelfByName(spans []Span) map[string]float64 {
	self := SelfTimes(spans)
	mean, count := map[string]float64{}, map[string]int{}
	for _, s := range spans {
		mean[s.Name] += float64(self[s.ID]) / float64(time.Microsecond)
		count[s.Name]++
	}
	for name, n := range count {
		mean[name] /= float64(n)
	}
	return mean
}

// WriteSpans writes the spans as one JSON document.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
