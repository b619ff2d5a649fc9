package obs

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func testMeta() Meta {
	return Meta{Scheme: "PAD", Tick: 100 * time.Millisecond, Racks: 4, ServersPerRack: 10}
}

// TestNilTracer pins the disabled path: every method on a nil tracer is
// a safe no-op, which is what lets the engine emit unconditionally.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: KindLevel})
	tr.SetMeta(testMeta())
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must be empty")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRingOverflow pins the overflow policy: a full ring drops new
// events (counting them) without blocking and without disturbing the
// order or content of the retained prefix.
func TestRingOverflow(t *testing.T) {
	const capacity, extra = 8, 5
	tr := NewTracer(capacity)
	want := make([]Event, 0, capacity)
	for i := 0; i < capacity+extra; i++ {
		e := Event{Tick: int64(i), Rack: int32(i % 3), Kind: KindShed, A: float64(i)}
		tr.Emit(e)
		if i < capacity {
			want = append(want, e)
		}
	}
	if got := tr.Dropped(); got != extra {
		t.Fatalf("dropped = %d, want %d", got, extra)
	}
	if got := tr.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("retained events reordered or corrupted:\ngot  %v\nwant %v", got, want)
	}
	if tr.Len() != capacity {
		t.Fatalf("len = %d, want %d", tr.Len(), capacity)
	}
}

// TestFlushClearsRing verifies Flush hands events to sinks and frees the
// ring for more, while the dropped counter survives for the footer.
func TestFlushClearsRing(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(2, NewJSONLSink(&buf))
	tr.SetMeta(testMeta())
	tr.Emit(Event{Tick: 0, Rack: -1, Kind: KindLevel, B: 1})
	tr.Emit(Event{Tick: 1, Rack: 0, Kind: KindShed, A: 3})
	tr.Emit(Event{Tick: 2, Rack: 1, Kind: KindShed}) // dropped
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatalf("ring not cleared by flush: %d", tr.Len())
	}
	tr.Emit(Event{Tick: 3, Rack: -1, Kind: KindTrip, A: 9})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	meta, events, foot, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta != testMeta() {
		t.Fatalf("meta round-trip: got %+v", meta)
	}
	wantEvents := []Event{
		{Tick: 0, Rack: -1, Kind: KindLevel, B: 1},
		{Tick: 1, Rack: 0, Kind: KindShed, A: 3},
		{Tick: 3, Rack: -1, Kind: KindTrip, A: 9},
	}
	if !reflect.DeepEqual(events, wantEvents) {
		t.Fatalf("events:\ngot  %v\nwant %v", events, wantEvents)
	}
	if foot.Events != 3 || foot.Dropped != 1 {
		t.Fatalf("footer = %+v, want 3 events, 1 dropped", foot)
	}
}

// TestJSONLRoundTrip checks Emit → JSONL → ReadJSONL is the identity on
// a spread of kinds and payloads.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(0, NewJSONLSink(&buf))
	tr.SetMeta(testMeta())
	want := []Event{
		{Tick: 0, Rack: -1, Kind: KindLevel, A: 0, B: 1},
		{Tick: 17, Rack: 2, Kind: KindMicroShave, A: 12.5, B: 1400},
		{Tick: 18, Rack: -1, Kind: KindVDEBAlloc, A: 800, B: 640.25},
		{Tick: 40, Rack: 3, Kind: KindOverload, A: 2011, B: 1980},
		{Tick: 41, Rack: 3, Kind: KindHeat, A: 5.5, B: 10},
		{Tick: 60, Rack: -1, Kind: KindAttackPhase, A: 1, B: 2},
		{Tick: 77, Rack: 1, Kind: KindMarginLow, A: 42, B: 2138},
		{Tick: 90, Rack: 0, Kind: KindTrip, A: 2300, B: 2138},
	}
	for _, e := range want {
		tr.Emit(e)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, _, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\ngot  %v\nwant %v", got, want)
	}
}

// TestKindNames pins the wire names and their inversion.
func TestKindNames(t *testing.T) {
	for k := KindLevel; k <= KindFinished; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if got := kindByName(k.String()); got != k {
			t.Fatalf("kindByName(%q) = %d, want %d", k.String(), got, k)
		}
	}
	if kindByName("nope") != 0 {
		t.Fatal("unknown names must map to 0")
	}
}
