package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"parcoach"
)

// Span is one timed call the benchmark made into a layer of the system.
type Span struct {
	Name  string `json:"name"`
	Layer string `json:"layer"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the index of the enclosing span, or -1.
	Parent int `json:"parent"`
	// Op numbers the workload operation the span belongs to (-1 for
	// set-up).
	Op int `json:"op"`
}

// tracer keeps the spans of a traced run in memory until the run ends.
// Spans are recorded once they are complete, parents before children.
// A nil *tracer records nothing, so the untraced path pays one nil check
// per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index (-1 on a nil
// tracer).
func (t *tracer) add(name, layer string, parent, op int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		Name: name, Layer: layer, Parent: parent, Op: op,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return len(t.spans) - 1
}

// passLayer maps a compile pipeline pass to the layer that implements it,
// following the buckets of parcoach.Timing.
func passLayer(pass string) string {
	switch pass {
	case "frontend":
		return "frontend"
	case "instrument":
		return "instrument"
	case "dominators", "analysis-begin", "analysis-prepare", "taint",
		"contexts", "summaries", "check", "analysis-finish":
		return "analysis"
	}
	return "passes" // fold, cfg, dce, lower, regalloc
}

// addCompile records one compile as a pipeline span whose children are
// the passes of prog.Timing laid end to end in execution order; the
// pipeline span's self time is then Timing.Total minus the passes.
func (t *tracer) addCompile(op int, start, end time.Time, prog *parcoach.Program) {
	if t == nil {
		return
	}
	parent := t.add("compile", "pipeline", -1, op, start, end)
	at := start
	for _, p := range prog.Timing.Passes {
		t.add("pass."+p.Name, passLayer(p.Name), parent, op, at, at.Add(p.Duration))
		at = at.Add(p.Duration)
	}
}

// selfTimes sums every layer's self time: each span's duration minus
// the part of it its children cover.
func (t *tracer) selfTimes() []LayerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			covered[s.Parent] += max(0, min(s.End, p.End)-max(s.Start, p.Start))
		}
	}
	byLayer := map[string]*LayerTime{}
	for i, s := range t.spans {
		lt := byLayer[s.Layer]
		if lt == nil {
			lt = &LayerTime{Layer: s.Layer}
			byLayer[s.Layer] = lt
		}
		lt.SelfMS += float64(s.End-s.Start-covered[i]) / 1e6
		lt.Spans++
	}
	out := make([]LayerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// maxSpanFile bounds the spans written to the span file; the first ones
// are kept and the number dropped is recorded.
const maxSpanFile = 200_000

// write stores the spans as JSON at path.
func (t *tracer) write(path string, r *Run) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	dropped := 0
	if len(spans) > maxSpanFile {
		dropped = len(spans) - maxSpanFile
		spans = spans[:maxSpanFile]
	}
	data, err := json.Marshal(map[string]any{
		"workload": r.Workload, "seed": r.Seed, "dropped": dropped, "spans": spans,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
