// Package wire is padd's batched binary telemetry frame: a
// length-prefixed, versioned format carrying many (session, samples)
// records per frame, replacing one JSON document per session for
// fleet-scale ingest. Frames travel inside the persistent stream's
// envelopes (stream.go), one frame per envelope.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       2     magic "PW" (0x50 0x57)
//	2       1     version (currently 1)
//	3       1     flags (must be 0)
//	4       4     uint32 frame length, including this 12-byte header
//	8       4     uint32 record count
//	12      ...   records, back to back
//
// Record layout:
//
//	offset  size  field
//	0       1     uint8 id length L in [1, 64]
//	1       L     session id bytes ([A-Za-z0-9_.-], not re-validated here)
//	1+L     2     uint16 sample count S >= 1 (ticks in this record)
//	3+L     2     uint16 servers per sample N >= 1
//	5+L     8*S*N float64 utilization payload, sample-major
//	              (sample 0's N servers, then sample 1's, ...)
//
// The payload carries raw IEEE-754 bits, so a value survives the wire
// exactly and the binary ingest path feeds the engine the same float64
// the JSON path parses — which is what keeps padd's online==offline
// replay bit-identical through either format.
//
// Decoding is zero-copy and allocation-free in steady state: Decoder
// and Record are reused across frames, ID and the payload are subslices
// of the frame buffer, and FloatsInto converts the payload into a
// caller-owned buffer that is only grown, never reallocated per call.
// FloatsInto applies padd's ingest semantics: non-finite values reject
// the record, values outside [0, 1] are clamped — identical to the
// JSON path's validation, so the two formats cannot drift.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Format constants.
const (
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 12
	// Version is the format version this package encodes and accepts.
	Version = 1
	// MaxIDLen bounds a session id, matching padd's session-id grammar.
	MaxIDLen = 64
	// MaxSamples and MaxServers bound one record's shape (uint16 fields).
	MaxSamples = 1<<16 - 1
	MaxServers = 1<<16 - 1
	// MaxFrameLen bounds a whole frame, and so a stream envelope's
	// payload; it equals padd's cap on a JSON request body.
	MaxFrameLen = 32 << 20

	magic0 = 'P'
	magic1 = 'W'

	// recordOverhead is the smallest possible record: 1-byte id length,
	// 1-byte id, sample and server counts, one float64.
	recordOverhead = 1 + 1 + 2 + 2 + 8
)

// Decode errors. All decoder failures wrap ErrMalformed so callers can
// map any of them onto one "bad frame" response.
var (
	ErrMalformed = errors.New("wire: malformed frame")
	ErrTruncated = fmt.Errorf("%w: truncated", ErrMalformed)
	ErrBadMagic  = fmt.Errorf("%w: bad magic", ErrMalformed)
	ErrVersion   = fmt.Errorf("%w: unsupported version", ErrMalformed)
	ErrNonFinite = errors.New("wire: non-finite utilization")
)

// Encoder builds one frame. The zero value is ready to use; Reset
// recycles the buffer for the next frame so a steady-state producer
// allocates nothing once the buffer has grown to its working size.
type Encoder struct {
	buf     []byte
	records uint32
}

// Reset discards the frame under construction, keeping the buffer.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.records = 0
}

// Records reports how many records the frame holds so far.
func (e *Encoder) Records() int { return int(e.records) }

func (e *Encoder) header() {
	if len(e.buf) != 0 {
		return
	}
	e.buf = append(e.buf, magic0, magic1, Version, 0,
		0, 0, 0, 0, // frame length, patched by Frame
		0, 0, 0, 0) // record count, patched by Frame
}

// AppendFlat appends one record from a sample-major flat payload of
// samples×servers utilization values.
func (e *Encoder) AppendFlat(id string, samples, servers int, u []float64) error {
	if len(id) == 0 || len(id) > MaxIDLen {
		return fmt.Errorf("wire: id length %d out of [1, %d]", len(id), MaxIDLen)
	}
	if samples < 1 || samples > MaxSamples {
		return fmt.Errorf("wire: %d samples out of [1, %d]", samples, MaxSamples)
	}
	if servers < 1 || servers > MaxServers {
		return fmt.Errorf("wire: %d servers out of [1, %d]", servers, MaxServers)
	}
	if len(u) != samples*servers {
		return fmt.Errorf("wire: payload has %d values for %d×%d", len(u), samples, servers)
	}
	e.header()
	e.buf = append(e.buf, uint8(len(id)))
	e.buf = append(e.buf, id...)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(samples))
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(servers))
	for _, v := range u {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
	}
	e.records++
	return nil
}

// AppendSamples appends one record from per-sample slices; every sample
// must have the same length.
func (e *Encoder) AppendSamples(id string, samples [][]float64) error {
	if len(samples) == 0 {
		return fmt.Errorf("wire: record %q has no samples", id)
	}
	servers := len(samples[0])
	if len(id) == 0 || len(id) > MaxIDLen {
		return fmt.Errorf("wire: id length %d out of [1, %d]", len(id), MaxIDLen)
	}
	if len(samples) > MaxSamples {
		return fmt.Errorf("wire: %d samples out of [1, %d]", len(samples), MaxSamples)
	}
	if servers < 1 || servers > MaxServers {
		return fmt.Errorf("wire: %d servers out of [1, %d]", servers, MaxServers)
	}
	e.header()
	e.buf = append(e.buf, uint8(len(id)))
	e.buf = append(e.buf, id...)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(len(samples)))
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(servers))
	for _, s := range samples {
		if len(s) != servers {
			return fmt.Errorf("wire: ragged record %q: sample has %d values, first had %d",
				id, len(s), servers)
		}
		for _, v := range s {
			e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
		}
	}
	e.records++
	return nil
}

// Frame patches the header and returns the finished frame. The returned
// slice aliases the encoder's buffer and is valid until the next Reset
// or Append call. A frame with zero records is legal (a keep-alive).
func (e *Encoder) Frame() []byte {
	e.header()
	binary.LittleEndian.PutUint32(e.buf[4:8], uint32(len(e.buf)))
	binary.LittleEndian.PutUint32(e.buf[8:12], e.records)
	return e.buf
}

// Record is one decoded record. ID and the payload are zero-copy views
// into the frame buffer, valid until the decoder is Reset.
type Record struct {
	// ID is the session id bytes (view into the frame).
	ID []byte
	// Samples and Servers give the payload shape.
	Samples int
	Servers int

	payload []byte // Samples*Servers*8 bytes, view into the frame
}

// Values reports the number of float64 values in the payload.
func (r *Record) Values() int { return r.Samples * r.Servers }

// FloatsInto decodes the payload into dst, growing it only if its
// capacity is short — a caller that reuses dst across records decodes
// with zero allocations. Ingest semantics are applied here, identically
// to padd's JSON path: any NaN or ±Inf rejects the whole record with
// ErrNonFinite; finite values are clamped to [0, 1].
func (r *Record) FloatsInto(dst []float64) ([]float64, error) {
	n := r.Samples * r.Servers
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(r.payload[8*i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return dst, fmt.Errorf("%w: sample %d server %d", ErrNonFinite, i/r.Servers, i%r.Servers)
		}
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		dst[i] = v
	}
	return dst, nil
}

// Decoder iterates a frame's records. The zero value is empty; Reset it
// onto a frame buffer. Reusing one Decoder (and one Record) across
// frames keeps the decode path allocation-free.
type Decoder struct {
	buf  []byte
	off  int
	left int
}

// Reset validates the frame header and positions the decoder before the
// first record. The buffer is retained (zero-copy) and must not be
// modified while decoding.
func (d *Decoder) Reset(frame []byte) error {
	d.buf, d.off, d.left = nil, 0, 0
	if len(frame) < HeaderSize {
		return fmt.Errorf("%w: %d header bytes, want %d", ErrTruncated, len(frame), HeaderSize)
	}
	if frame[0] != magic0 || frame[1] != magic1 {
		return fmt.Errorf("%w: 0x%02x%02x", ErrBadMagic, frame[0], frame[1])
	}
	if frame[2] != Version {
		return fmt.Errorf("%w: %d (want %d)", ErrVersion, frame[2], Version)
	}
	if frame[3] != 0 {
		return fmt.Errorf("%w: reserved flags 0x%02x", ErrMalformed, frame[3])
	}
	if len(frame) > MaxFrameLen {
		return fmt.Errorf("%w: %d bytes exceeds cap %d", ErrMalformed, len(frame), MaxFrameLen)
	}
	frameLen := binary.LittleEndian.Uint32(frame[4:8])
	if int64(frameLen) != int64(len(frame)) {
		return fmt.Errorf("%w: header says %d bytes, frame has %d", ErrMalformed, frameLen, len(frame))
	}
	records := binary.LittleEndian.Uint32(frame[8:12])
	// Each record occupies at least recordOverhead bytes, so a count the
	// remaining bytes cannot hold is rejected before any record loop.
	if int64(records)*recordOverhead > int64(len(frame)-HeaderSize) {
		return fmt.Errorf("%w: %d records cannot fit in %d payload bytes",
			ErrMalformed, records, len(frame)-HeaderSize)
	}
	d.buf = frame
	d.off = HeaderSize
	d.left = int(records)
	return nil
}

// Next decodes the next record into rec. It returns io.EOF after the
// last record — at which point the whole frame must have been consumed,
// or the frame is malformed (trailing garbage).
func (d *Decoder) Next(rec *Record) error {
	if d.left == 0 {
		if d.off != len(d.buf) {
			return fmt.Errorf("%w: %d trailing bytes after last record", ErrMalformed, len(d.buf)-d.off)
		}
		return io.EOF
	}
	buf, off := d.buf, d.off
	if off+1 > len(buf) {
		return fmt.Errorf("%w: record header", ErrTruncated)
	}
	idLen := int(buf[off])
	off++
	if idLen < 1 || idLen > MaxIDLen {
		return fmt.Errorf("%w: id length %d out of [1, %d]", ErrMalformed, idLen, MaxIDLen)
	}
	if off+idLen+4 > len(buf) {
		return fmt.Errorf("%w: record header", ErrTruncated)
	}
	id := buf[off : off+idLen]
	off += idLen
	samples := int(binary.LittleEndian.Uint16(buf[off:]))
	servers := int(binary.LittleEndian.Uint16(buf[off+2:]))
	off += 4
	if samples < 1 {
		return fmt.Errorf("%w: zero samples", ErrMalformed)
	}
	if servers < 1 {
		return fmt.Errorf("%w: zero servers", ErrMalformed)
	}
	payload := samples * servers * 8
	if off+payload > len(buf) {
		return fmt.Errorf("%w: payload wants %d bytes, %d remain", ErrTruncated, payload, len(buf)-off)
	}
	rec.ID = id
	rec.Samples = samples
	rec.Servers = servers
	rec.payload = buf[off : off+payload]
	d.off = off + payload
	d.left--
	return nil
}
