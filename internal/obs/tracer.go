package obs

// Tracer is a preallocated ring buffer of trace events. The engine emits
// into it from the tick loop; everything slow — encoding, I/O — happens
// in Flush/Close, which the run driver calls outside the tick loop.
//
// Overflow policy: when the ring is full, Emit drops the new event and
// increments the dropped counter instead of blocking or overwriting —
// the retained prefix stays contiguous and in emission order, so a
// truncated trace is still a valid (if shorter) timeline, and the drop
// count is reported in the stream footer.
//
// Concurrency: a Tracer is confined to the goroutine stepping the run it
// is attached to, exactly like the sim.Stepper that feeds it. The engine
// emits in tick and rack order (the apply kernel emits its μDEB shaves
// as it visits each rack).
//
// A nil *Tracer is valid and disabled: every method is nil-safe, so call
// sites need no flag checks beyond what the engine already does.
type Tracer struct {
	buf     []Event
	n       int
	dropped uint64
	meta    Meta
	sinks   []Sink
}

// DefaultCapacity is the ring capacity NewTracer uses when given a
// non-positive one: large enough for the transition-style events the
// engine emits over a multi-hour run, small enough to stay cache-friendly
// (64k events × 32 bytes = 2 MiB).
const DefaultCapacity = 1 << 16

// NewTracer builds a tracer with the given ring capacity and flush
// sinks. Sinks may be nil or empty; Events still accumulate for
// programmatic access.
func NewTracer(capacity int, sinks ...Sink) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{buf: make([]Event, capacity), sinks: sinks}
}

// SetMeta records the run description written as the stream header. The
// engine calls this when the tracer is attached.
func (t *Tracer) SetMeta(m Meta) {
	if t == nil {
		return
	}
	t.meta = m
}

// Meta returns the run description.
func (t *Tracer) Meta() Meta {
	if t == nil {
		return Meta{}
	}
	return t.meta
}

// Emit appends one event, or counts it as dropped when the ring is
// full. Nil-safe and allocation-free.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if t.n == len(t.buf) {
		t.dropped++
		return
	}
	t.buf[t.n] = e
	t.n++
}

// Len reports how many events the ring holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped reports how many events were discarded on ring overflow.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns a copy of the buffered events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, t.n)
	copy(out, t.buf[:t.n])
	return out
}

// Flush delivers the buffered events to every sink and clears the ring
// (the dropped counter persists, so the Close footer reports the run
// total). Call it between runs or after the tick loop — never inside it.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	for _, s := range t.sinks {
		if err := s.Write(t.meta, t.buf[:t.n]); err != nil {
			return err
		}
	}
	t.n = 0
	return nil
}

// Close flushes whatever remains and closes every sink, handing each the
// run's drop count for its footer. The tracer may be reused afterwards
// only for programmatic access (Events), not for sink flushing.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	if err := t.Flush(); err != nil {
		return err
	}
	var first error
	for _, s := range t.sinks {
		if err := s.Close(t.dropped); err != nil && first == nil {
			first = err
		}
	}
	t.sinks = nil
	return first
}
