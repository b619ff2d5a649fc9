package padd

import (
	"sync"
	"time"
)

// Event types recorded in a session's ring-buffered log.
const (
	EventCreated  = "created"  // session started
	EventLevel    = "level"    // security-level transition
	EventShed     = "shed"     // load shedding engaged, changed, or released
	EventTrip     = "trip"     // a breaker tripped
	EventCoast    = "coast"    // wall-clock tick with no telemetry: coasting
	EventAnomaly  = "anomaly"  // metering CUSUM flagged a power anomaly
	EventFinished = "finished" // horizon reached or StopOnTrip fired
)

// Event is one entry in a session's action log.
type Event struct {
	// Seq increases by one per event for the session's lifetime, so a
	// poller can detect entries lost to ring overwrite.
	Seq uint64 `json:"seq"`
	// Tick and Offset locate the event on the session's simulated
	// timeline.
	Tick   int      `json:"tick"`
	Offset Duration `json:"offset"`
	// Wall is the wall-clock time the event was recorded.
	Wall time.Time `json:"wall"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Detail is a human-readable description ("L1-Normal -> L2-MinorIncident").
	Detail string `json:"detail"`
}

// eventRing is a bounded event log: the newest size entries win,
// overwriting the oldest. Its buffer grows on demand, doubling up to
// size, so a session that logs a handful of events never pays for the
// full bound. Safe for one writer and many readers.
type eventRing struct {
	mu   sync.Mutex
	buf  []Event
	size int    // maximum entries retained
	next uint64 // sequence number of the next event
}

func newEventRing(size int) *eventRing {
	return &eventRing{size: max(size, 1)}
}

// add appends an event, assigning its sequence number.
func (r *eventRing) add(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.Seq = r.next
	r.next++
	if len(r.buf) < r.size {
		if len(r.buf) == cap(r.buf) {
			grown := make([]Event, len(r.buf), min(max(4, 2*len(r.buf)), r.size))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, e)
		return
	}
	r.buf[e.Seq%uint64(r.size)] = e
}

// list returns the retained events in chronological order, optionally
// only those with Seq >= since.
func (r *eventRing) list(since uint64) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	start := uint64(0)
	if r.next > uint64(r.size) {
		start = r.next - uint64(r.size)
	}
	if since > start {
		start = since
	}
	for seq := start; seq < r.next; seq++ {
		out = append(out, r.buf[seq%uint64(r.size)])
	}
	return out
}
