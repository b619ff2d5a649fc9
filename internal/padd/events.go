package padd

import (
	"sync"

	"repro/internal/obs"
)

// eventRing is a session's event log: the sink its tracer flushes into
// once per tick, bounded so that the newest size events win,
// overwriting the oldest. Its buffer grows on demand, doubling up to
// size, so a session that logs a handful of events never pays for the
// full bound. Safe for one writer and many readers; a tick's events
// land in one Write, so a reader sees every tick whole or not at all.
type eventRing struct {
	mu      sync.Mutex
	buf     []obs.Event
	size    int      // maximum events retained
	written uint64   // events ever written
	meta    obs.Meta // the header of the latest Write
	lost    uint64   // events the tracer dropped, reported by Close
}

func newEventRing(size int) *eventRing {
	return &eventRing{size: max(size, 1)}
}

// Write implements obs.Sink: it appends one flush of events and keeps
// its header.
func (r *eventRing) Write(meta obs.Meta, events []obs.Event) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.meta = meta
	for _, e := range events {
		if len(r.buf) < r.size {
			if len(r.buf) == cap(r.buf) {
				grown := make([]obs.Event, len(r.buf), min(max(4, 2*len(r.buf)), r.size))
				copy(grown, r.buf)
				r.buf = grown
			}
			r.buf = append(r.buf, e)
		} else {
			r.buf[r.written%uint64(r.size)] = e
		}
		r.written++
	}
	return nil
}

// Close implements obs.Sink: it records the tracer's drop count.
func (r *eventRing) Close(dropped uint64) error {
	r.mu.Lock()
	r.lost = dropped
	r.mu.Unlock()
	return nil
}

// list returns the header, the retained events at tick since or later
// in emission order, and how many events the log has lost: overwritten
// by newer ones or dropped by the tracer.
func (r *eventRing) list(since int64) (obs.Meta, []obs.Event, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	first := r.written - uint64(len(r.buf)) // oldest retained event
	start := first
	for start < r.written && r.buf[start%uint64(r.size)].Tick < since {
		start++
	}
	out := make([]obs.Event, 0, r.written-start)
	for i := start; i < r.written; i++ {
		out = append(out, r.buf[i%uint64(r.size)])
	}
	return r.meta, out, first + r.lost
}
