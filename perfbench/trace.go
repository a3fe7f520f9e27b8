package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span that
// caused it (0 for a root); Req ties the spans of one request or packet
// together. Start and End are nanoseconds since the tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the traced run and writes them out at
// the end. A nil *tracer records nothing, so untraced code paths call the
// same helpers at the cost of a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// count is how many spans have been opened so far.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns a copy of the spans opened at or after position mark (a
// previous count), so a segment can read only its own spans.
func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.since(0) {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// id: its duration minus the part of its interval that its children
// cover. Children may overlap one another (parallel work) or run past
// their parent; the covered part is the union of the children's intervals
// clipped to the parent, so no instant is subtracted twice.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the intervals of cs clipped to
// [lo, hi].
func covered(lo, hi int64, cs []span) int64 {
	if len(cs) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(cs))
	for _, c := range cs {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTime is one layer's total self time and span count.
type layerTime struct {
	selfNs int64
	n      int
}

// layerTimes aggregates self time by span name, so callers can report a
// layer's mean self time per call.
type layerTimes map[string]layerTime

func aggregateSelf(spans []span) layerTimes {
	self := selfTimes(spans)
	out := layerTimes{}
	for _, s := range spans {
		lt := out[s.Name]
		lt.selfNs += self[s.ID]
		lt.n++
		out[s.Name] = lt
	}
	return out
}

// meanSelfUs is the mean self time per span of the named layer in µs.
func (m layerTimes) meanSelfUs(name string) (float64, int, error) {
	lt, ok := m[name]
	if !ok || lt.n == 0 {
		return 0, 0, fmt.Errorf("no %s spans recorded", name)
	}
	return float64(lt.selfNs) / float64(lt.n) / 1e3, lt.n, nil
}
