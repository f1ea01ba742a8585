package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share its root: root is the id of the outermost span, and
// parent is the span whose interval contains this one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Root   int    `json:"root"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run and writes them out
// at exit. A nil *tracer records nothing, so the untraced path passes
// nil and pays one nil check per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (-1 for a new operation) and
// returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	root := id
	if parent >= 0 {
		root = t.spans[parent].Root
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Root: root, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a closed span with explicit bounds, for intervals the
// benchmark learns about after the fact (model-checker levels, whose
// end is the Progress callback; requests, timed from their due time),
// and returns its id.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := t.begin(name, parent)
	t.mu.Lock()
	t.spans[id].Start = start.Sub(t.origin).Nanoseconds()
	t.spans[id].End = end.Sub(t.origin).Nanoseconds()
	t.mu.Unlock()
	return id
}

type layerTime struct {
	name string
	ms   float64
}

// selfTimes sums each span name's self time — its duration minus the
// part its children cover — in ms, largest first. Root spans appear
// under their own name; their self time is the residual no layer
// accounts for.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := map[string]int64{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self[s.Name] += s.End - s.Start
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	out := make([]layerTime, 0, len(self))
	for name, ns := range self {
		out = append(out, layerTime{name, float64(ns) / 1e6})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ms > out[j].ms })
	return out
}

// selfMS is the summed self time of the spans named name, in ms.
func (t *tracer) selfMS(name string) float64 {
	for _, l := range t.selfTimes() {
		if l.name == name {
			return l.ms
		}
	}
	return 0
}

// layerShares maps each layer's self time to a share (%) of the summed
// duration of the operations (the spans named "op"), under the
// per-layer metric names, plus trace.residual_pct for the operations'
// own self time: the part of the end-to-end time no layer accounts
// for. Layer spans may also sit under other roots, such as the direct
// replay of a request body the server executed.
func (t *tracer) layerShares() map[string]float64 {
	var total int64
	t.mu.Lock()
	for _, s := range t.spans {
		if s.Name == "op" && s.End >= 0 {
			total += s.End - s.Start
		}
	}
	t.mu.Unlock()
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for _, l := range t.selfTimes() {
		pct := 100 * l.ms * 1e6 / float64(total)
		if l.name == "op" {
			out["trace.residual_pct"] += pct
		} else if metric, ok := spanMetric[l.name]; ok {
			out[metric] += pct
		}
	}
	return out
}

// spanMetric names the per-layer share each span name feeds. Spans
// without an entry (such as the client-side wait of a request) count
// towards no layer and show only in the span file.
var spanMetric = map[string]string{
	"simrun.build_machine": "simrun.build_machine_pct",
	"workload.programs":    "workload.programs_pct",
	"sim.run":              "sim.run_self_pct",
	"coherence.check":      "coherence.check_pct",
	"report.render":        "report.render_pct",
	"mcheck.run":           "mcheck.run_pct",
	"mcheck.level":         "mcheck.run_pct",
}

// write stores every span as one JSON line in dir/file.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace write: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace write: %w", err)
	}
	return f.Close()
}
