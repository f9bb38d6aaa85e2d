package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one operation
// (a round, a cell, a request) share OpID; Parent is the ID of the span
// that caused this one (0 = none). Start and End are nanoseconds since the
// tracer was created.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	OpID   int    `json:"op_id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; nothing is written until the benchmark
// ends. It is safe for concurrent use (the serve workload records from
// handler goroutines).
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID; end closes it. Used for spans
// that have children, whose ID must exist before the children are added.
func (t *tracer) begin(name string, op, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, OpID: op, Parent: parent, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, OpID: op, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// opOf returns the op id of span id (0 when there is no such span).
func (t *tracer) opOf(id int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 1 || id > len(t.spans) {
		return 0
	}
	return t.spans[id-1].OpID
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfNS returns every span's self time by ID: its duration minus the part
// of its interval that its direct children cover. Children are clipped to
// the parent and overlapping children are counted once.
func selfNS(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := p.Start // everything before edge is already accounted for
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = p.dur() - covered
	}
	return self
}

// sumNS totals the durations of the spans with the given name.
func sumNS(spans []span, name string) int64 {
	var total int64
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
		}
	}
	return total
}

// durationsOf returns the durations, in the given unit, of the spans with
// the given name.
func durationsOf(spans []span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// writeTrace writes one workload's spans to <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Unit     string `json:"unit"`
		Spans    []span `json:"spans"`
	}{workload, "ns", spans})
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), raw, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
