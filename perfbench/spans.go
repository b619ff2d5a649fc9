package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the span
// that caused it (0 for a root); Trace groups the spans of one request.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Trace  int     `json:"trace,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one nil check per boundary.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a finished interval and returns its id (0 when untraced).
func (l *spanLog) add(name string, parent, trace int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: l.ms(start), End: l.ms(end),
	})
	return id
}

// end moves the end of span id, for a parent recorded before its
// children so they can name it.
func (l *spanLog) end(id int, t time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = l.ms(t)
}

func (l *spanLog) ms(t time.Time) float64 {
	return float64(t.Sub(l.epoch)) / float64(time.Millisecond)
}

func (l *spanLog) snapshot() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes sums each span name's self time: its duration minus the
// part of it that its children cover.
func (l *spanLog) selfTimes() map[string]float64 {
	spans := l.snapshot()
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, end := 0.0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}
