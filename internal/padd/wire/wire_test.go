package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// decodeAll runs a full decode pass, collecting each record's id and
// converted payload.
func decodeAll(t *testing.T, frame []byte) (ids []string, floats [][]float64) {
	t.Helper()
	var d Decoder
	if err := d.Reset(frame); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	var rec Record
	for {
		err := d.Next(&rec)
		if err == io.EOF {
			return ids, floats
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		u, err := rec.FloatsInto(nil)
		if err != nil {
			t.Fatalf("FloatsInto: %v", err)
		}
		ids = append(ids, string(rec.ID))
		floats = append(floats, append([]float64(nil), u...))
	}
}

func TestRoundTrip(t *testing.T) {
	var e Encoder
	if err := e.AppendFlat("alpha", 2, 3, []float64{0, 0.25, 0.5, 0.75, 1, 0.125}); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendSamples("s2", [][]float64{{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}}); err != nil {
		t.Fatal(err)
	}
	frame := e.Frame()

	ids, floats := decodeAll(t, frame)
	if !reflect.DeepEqual(ids, []string{"alpha", "s2"}) {
		t.Errorf("ids = %v", ids)
	}
	want := [][]float64{
		{0, 0.25, 0.5, 0.75, 1, 0.125},
		{0.1, 0.2, 0.3, 0.4, 0.5, 0.6},
	}
	if !reflect.DeepEqual(floats, want) {
		t.Errorf("payloads = %v, want %v", floats, want)
	}
}

// TestBitExactness pins the property the replay gate depends on: every
// finite value in [0,1] crosses the wire with its bits intact.
func TestBitExactness(t *testing.T) {
	vals := []float64{0, 1, 0.1, 1.0 / 3.0, math.Nextafter(0, 1), math.Nextafter(1, 0), 0.7071067811865476}
	var e Encoder
	if err := e.AppendFlat("x", 1, len(vals), vals); err != nil {
		t.Fatal(err)
	}
	_, floats := decodeAll(t, e.Frame())
	for i, v := range vals {
		if math.Float64bits(floats[0][i]) != math.Float64bits(v) {
			t.Errorf("value %d: bits %x -> %x", i, math.Float64bits(v), math.Float64bits(floats[0][i]))
		}
	}
}

func TestClampAndNonFinite(t *testing.T) {
	var e Encoder
	if err := e.AppendFlat("c", 1, 4, []float64{-0.5, 1.5, 0.25, -0.0}); err != nil {
		t.Fatal(err)
	}
	_, floats := decodeAll(t, e.Frame())
	if want := []float64{0, 1, 0.25, 0}; !reflect.DeepEqual(floats[0], want) {
		t.Errorf("clamped payload = %v, want %v", floats[0], want)
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var e Encoder
		if err := e.AppendFlat("c", 1, 2, []float64{0.5, bad}); err != nil {
			t.Fatal(err)
		}
		var d Decoder
		if err := d.Reset(e.Frame()); err != nil {
			t.Fatal(err)
		}
		var rec Record
		if err := d.Next(&rec); err != nil {
			t.Fatal(err)
		}
		if _, err := rec.FloatsInto(nil); !errors.Is(err, ErrNonFinite) {
			t.Errorf("FloatsInto(%v) = %v, want ErrNonFinite", bad, err)
		}
	}
}

func TestEncoderReset(t *testing.T) {
	var e Encoder
	if err := e.AppendFlat("a", 1, 1, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), e.Frame()...)
	e.Reset()
	if err := e.AppendFlat("a", 1, 1, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, append([]byte(nil), e.Frame()...)) {
		t.Error("Reset changed the encoding")
	}
}

func TestEmptyFrame(t *testing.T) {
	var e Encoder
	frame := e.Frame()
	var d Decoder
	if err := d.Reset(frame); err != nil {
		t.Fatalf("Reset empty frame: %v", err)
	}
	var rec Record
	if err := d.Next(&rec); err != io.EOF {
		t.Fatalf("Next on empty frame = %v, want io.EOF", err)
	}
}

func TestEncoderValidation(t *testing.T) {
	var e Encoder
	long := make([]byte, MaxIDLen+1)
	for i := range long {
		long[i] = 'a'
	}
	cases := []error{
		e.AppendFlat("", 1, 1, []float64{0}),
		e.AppendFlat(string(long), 1, 1, []float64{0}),
		e.AppendFlat("x", 0, 1, nil),
		e.AppendFlat("x", 1, 0, nil),
		e.AppendFlat("x", 2, 2, []float64{0, 0, 0}),
		e.AppendSamples("x", nil),
		e.AppendSamples("x", [][]float64{{0.1, 0.2}, {0.3}}),
	}
	for i, err := range cases {
		if err == nil {
			t.Errorf("case %d: invalid record accepted", i)
		}
	}
}

// validFrame is a known-good one-record frame shared by the corruption
// tests and the fuzz seeds.
func validFrame() []byte {
	var e Encoder
	if err := e.AppendFlat("fleet-1", 2, 2, []float64{0.1, 0.2, 0.3, 0.4}); err != nil {
		panic(err)
	}
	return append([]byte(nil), e.Frame()...)
}

func TestDecoderRejects(t *testing.T) {
	good := validFrame()

	corrupt := func(mut func(b []byte) []byte) error {
		b := mut(append([]byte(nil), good...))
		var d Decoder
		if err := d.Reset(b); err != nil {
			return err
		}
		var rec Record
		for {
			err := d.Next(&rec)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	}

	cases := map[string]func(b []byte) []byte{
		"truncated header": func(b []byte) []byte { return b[:HeaderSize-1] },
		"bad magic":        func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":      func(b []byte) []byte { b[2] = 9; return b },
		"bad flags":        func(b []byte) []byte { b[3] = 1; return b },
		"short frame": func(b []byte) []byte {
			return b[:len(b)-4] // frameLen header no longer matches
		},
		"oversized record count": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 1<<30)
			return b
		},
		"zero samples": func(b []byte) []byte {
			// sample count sits right after the 1-byte id length + id.
			off := HeaderSize + 1 + int(b[HeaderSize])
			binary.LittleEndian.PutUint16(b[off:], 0)
			return b
		},
		"zero servers": func(b []byte) []byte {
			off := HeaderSize + 1 + int(b[HeaderSize]) + 2
			binary.LittleEndian.PutUint16(b[off:], 0)
			return b
		},
		"payload overflow": func(b []byte) []byte {
			off := HeaderSize + 1 + int(b[HeaderSize])
			binary.LittleEndian.PutUint16(b[off:], MaxSamples)
			return b
		},
		"zero id length": func(b []byte) []byte { b[HeaderSize] = 0; return b },
		"trailing garbage": func(b []byte) []byte {
			b = append(b, 0xde, 0xad)
			binary.LittleEndian.PutUint32(b[4:8], uint32(len(b)))
			return b
		},
	}
	for name, mut := range cases {
		if err := corrupt(mut); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: error %v, want ErrMalformed", name, err)
		}
	}
}

// FuzzWireFrame hammers the decoder with arbitrary bytes: it must never
// panic, every record it does accept must convert or reject cleanly,
// and an accepted frame must survive a re-encode/re-decode round trip.
func FuzzWireFrame(f *testing.F) {
	good := validFrame()
	f.Add(good)
	// Truncations and header corruptions of the valid frame.
	f.Add(good[:HeaderSize])
	f.Add(good[:len(good)-3])
	bad := append([]byte(nil), good...)
	bad[2] = 99
	f.Add(bad)
	// A frame whose record claims more payload than exists.
	over := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(over[HeaderSize+1+7:], 0xffff)
	f.Add(over)
	// NaN payload.
	var e Encoder
	e.AppendFlat("n", 1, 1, []float64{0.5})
	nan := append([]byte(nil), e.Frame()...)
	binary.LittleEndian.PutUint64(nan[len(nan)-8:], math.Float64bits(math.NaN()))
	f.Add(nan)

	f.Fuzz(func(t *testing.T, data []byte) {
		var d Decoder
		if err := d.Reset(data); err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("Reset: unexpected error class %v", err)
			}
			return
		}
		var rec Record
		var re Encoder
		var scratch []float64
		type decoded struct {
			id string
			u  []float64
		}
		var accepted []decoded
		for {
			err := d.Next(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrMalformed) {
					t.Fatalf("Next: unexpected error class %v", err)
				}
				return
			}
			var u []float64
			u, err = rec.FloatsInto(scratch)
			scratch = u[:0]
			if err != nil {
				if !errors.Is(err, ErrNonFinite) {
					t.Fatalf("FloatsInto: unexpected error class %v", err)
				}
				return
			}
			accepted = append(accepted, decoded{string(rec.ID), append([]float64(nil), u...)})
			if err := re.AppendFlat(string(rec.ID), rec.Samples, rec.Servers, u); err != nil {
				t.Fatalf("re-encode of accepted record failed: %v", err)
			}
		}
		// Round trip: re-encoding the accepted records must decode back
		// to identical values (already clamped, so clamping is a no-op).
		var d2 Decoder
		if err := d2.Reset(re.Frame()); err != nil {
			t.Fatalf("re-decode Reset: %v", err)
		}
		for i := 0; ; i++ {
			err := d2.Next(&rec)
			if err == io.EOF {
				if i != len(accepted) {
					t.Fatalf("re-decode yielded %d records, want %d", i, len(accepted))
				}
				break
			}
			if err != nil {
				t.Fatalf("re-decode Next: %v", err)
			}
			u, err := rec.FloatsInto(nil)
			if err != nil {
				t.Fatalf("re-decode FloatsInto: %v", err)
			}
			if string(rec.ID) != accepted[i].id || !reflect.DeepEqual(u, accepted[i].u) {
				t.Fatalf("record %d changed across round trip", i)
			}
		}
	})
}
