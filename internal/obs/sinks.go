package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Sink consumes flushed trace events. Write may be called several times
// per run (once per Tracer.Flush); Close is called exactly once with the
// run's total dropped-event count and must flush any buffering.
type Sink interface {
	Write(meta Meta, events []Event) error
	Close(dropped uint64) error
}

// Footer is the JSONL stream trailer: how many events the stream carries
// and how many the ring dropped on overflow.
type Footer struct {
	// Events counts the event records written to the stream.
	Events int `json:"events"`
	// Dropped counts events lost to ring overflow: a traced run keeps
	// its oldest events and drops the rest, a padd session's log keeps
	// its newest and overwrites the oldest.
	Dropped uint64 `json:"dropped"`
}

// jsonlEvent is the wire form of one Event.
type jsonlEvent struct {
	Tick int64   `json:"tick"`
	MS   float64 `json:"ms"` // simulation offset in milliseconds
	Rack int32   `json:"rack"`
	Kind string  `json:"kind"`
	A    float64 `json:"a"`
	B    float64 `json:"b"`
}

// JSONLSink writes a trace as JSON Lines: one meta header object, one
// object per event, one summary footer. The format is the native input
// of cmd/padtrace and trivially greppable/jq-able.
type JSONLSink struct {
	w         *bufio.Writer
	wroteMeta bool
	events    int
}

// NewJSONLSink wraps w. The caller owns closing the underlying writer
// after the sink's Close.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// Write implements Sink.
func (s *JSONLSink) Write(meta Meta, events []Event) error {
	enc := json.NewEncoder(s.w)
	if !s.wroteMeta {
		s.wroteMeta = true
		if err := enc.Encode(struct {
			Meta Meta `json:"meta"`
		}{meta}); err != nil {
			return err
		}
	}
	for _, e := range events {
		s.events++
		if err := enc.Encode(jsonlEvent{
			Tick: e.Tick,
			MS:   float64(meta.Time(e.Tick)) / float64(time.Millisecond),
			Rack: e.Rack,
			Kind: e.Kind.String(),
			A:    e.A,
			B:    e.B,
		}); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Sink, writing the summary footer.
func (s *JSONLSink) Close(dropped uint64) error {
	if err := json.NewEncoder(s.w).Encode(struct {
		Summary Footer `json:"summary"`
	}{Footer{Events: s.events, Dropped: dropped}}); err != nil {
		return err
	}
	return s.w.Flush()
}

// jsonlLine is the union of the three JSONL record shapes, for reading.
type jsonlLine struct {
	Meta    *Meta   `json:"meta"`
	Summary *Footer `json:"summary"`

	Tick *int64  `json:"tick"`
	Rack int32   `json:"rack"`
	Kind string  `json:"kind"`
	A    float64 `json:"a"`
	B    float64 `json:"b"`
}

// ReadJSONL parses a JSONL trace stream back into meta, events and
// footer. A missing footer (crashed run) yields a zero Footer with
// Events set to the parsed count.
func ReadJSONL(r io.Reader) (Meta, []Event, Footer, error) {
	var (
		meta    Meta
		events  []Event
		foot    Footer
		sawFoot bool
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var line jsonlLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return meta, events, foot, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		switch {
		case line.Meta != nil:
			meta = *line.Meta
		case line.Summary != nil:
			foot = *line.Summary
			sawFoot = true
		case line.Tick != nil:
			k := kindByName(line.Kind)
			if k == 0 {
				return meta, events, foot, fmt.Errorf("obs: trace line %d: unknown kind %q", lineNo, line.Kind)
			}
			events = append(events, Event{
				Tick: *line.Tick, Rack: line.Rack, Kind: k, A: line.A, B: line.B,
			})
		}
	}
	if err := sc.Err(); err != nil {
		return meta, events, foot, err
	}
	if !sawFoot {
		foot.Events = len(events)
	}
	return meta, events, foot, nil
}
