package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's side of the call. Times are nanoseconds since the
// tracer's epoch; N is the operation count for spans that time a loop
// (ns/op = duration/N), 1 otherwise.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: begin returns an inert handle and nothing is recorded,
// so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  uint64 // guarded by mu
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanHandle is an open span; end closes and records it.
type spanHandle struct {
	t      *tracer
	id     uint64
	parent uint64
	name   string
	start  int64
}

// begin opens a span under parent (0 for a root).
func (t *tracer) begin(name string, parent uint64) spanHandle {
	if t == nil {
		return spanHandle{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return spanHandle{t: t, id: id, parent: parent, name: name, start: int64(time.Since(t.epoch))}
}

// end records the span with n operations; it returns the duration.
func (h spanHandle) end(n int64) time.Duration {
	if h.t == nil {
		return 0
	}
	s := span{ID: h.id, Parent: h.parent, Name: h.name, Start: h.start, End: int64(time.Since(h.t.epoch)), N: n}
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, s)
	h.t.mu.Unlock()
	return time.Duration(s.dur())
}

// durations returns the recorded durations (ns) of every span named
// name, ascending.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	sort.Float64s(out)
	return out
}

// selfTime aggregates spans by name: how many, their total duration,
// and their self time — each span's duration minus the part of its
// interval that its direct children cover (overlapping children count
// once, and a child's time outside its parent is not subtracted).
type selfTime struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func selfTimes(spans []span) map[string]selfTime {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]selfTime)
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.TotalNs += s.dur()
		st.SelfNs += s.dur() - covered(s, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to
// parent's interval.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write dumps every span and the per-name self-time summary as JSON to
// dir/name, creating dir.
func (t *tracer) write(dir, name string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Self  map[string]selfTime `json:"self"`
		Spans []span              `json:"spans"`
	}{selfTimes(spans), spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
