package wire

// Stream framing: the persistent-ingest envelope around the batched
// telemetry frame, and the compact binary ack/reject frame the daemon
// answers with. One long-lived connection carries an unbounded sequence
// of data frames client→server and ack frames server→client; both
// directions are length-prefixed so a bufio reader can walk the stream
// without any delimiter scanning.
//
// Data frame layout (all integers little-endian):
//
//	offset  size  field
//	0       2     magic "PS" (0x50 0x53)
//	2       1     version (currently 1)
//	3       1     type (1 = data; others reserved)
//	4       4     uint32 total length, including this 16-byte header
//	8       8     uint64 sequence number (client-chosen, echoed in the ack)
//	16      ...   one standard wire frame ("PW", see package doc)
//
// The embedded wire frame carries its own length; the envelope length
// must agree (envelope = StreamHeaderSize + frame), which the decoder
// cross-checks, so a corrupted length field cannot desynchronize the
// stream silently.
//
// Ack frame layout:
//
//	offset  size  field
//	0       2     magic "PA" (0x50 0x41)
//	2       1     version (currently 1)
//	3       1     status (AckOK, AckPartial, AckBackpressure, AckDraining, AckMalformed)
//	4       4     uint32 total length, including this 28-byte header
//	8       8     uint64 sequence number (echoes the data frame)
//	16      4     uint32 accepted record count
//	20      4     uint32 accepted sample count
//	24      4     uint32 reject count R
//	28      ...   R reject entries: uint8 reason, uint8 id length L, L id bytes
//
// An ack with no rejects is exactly AckHeaderSize bytes — the steady
// state of a healthy stream — and AppendAck encodes into a caller-owned
// buffer, so the server acknowledges millions of frames without
// allocating.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Stream format constants.
const (
	// StreamHeaderSize is the data-frame envelope length in bytes.
	StreamHeaderSize = 16
	// StreamVersion is the envelope version this package speaks.
	StreamVersion = 1
	// StreamData is the only defined envelope type.
	StreamData = 1

	// AckHeaderSize is the fixed ack-frame header length in bytes.
	AckHeaderSize = 28
	// AckVersion is the ack format version this package speaks.
	AckVersion = 1
	// MaxAckLen bounds one ack frame; a full 65k-record frame rejected
	// record by record still fits with room to spare.
	MaxAckLen = 8 << 20

	streamMagic0 = 'P'
	streamMagic1 = 'S'
	ackMagic0    = 'P'
	ackMagic1    = 'A'
)

// Ack statuses: the frame-level verdict.
const (
	// AckOK: every record was accepted (or the frame was empty).
	AckOK = 0
	// AckPartial: some records rejected; see the reject entries.
	AckPartial = 1
	// AckBackpressure: nothing accepted and every rejection was a full
	// queue — the 429 equivalent; resend the whole frame after a pause.
	AckBackpressure = 2
	// AckDraining: nothing accepted and every rejection was a stopping
	// session — the 503 equivalent; the daemon is shutting down.
	AckDraining = 3
	// AckMalformed: the frame went syntactically bad mid-decode. Records
	// before the corruption are counted as accepted and stay accepted;
	// the server drops the connection after sending this ack.
	AckMalformed = 4
)

// Reject reasons, one byte per rejected record.
const (
	// RejectUnknownSession: no session with the record's id.
	RejectUnknownSession = 1
	// RejectQueueFull: the session's bounded ingest queue is full;
	// retryable backpressure.
	RejectQueueFull = 2
	// RejectStopping: the session is draining for shutdown.
	RejectStopping = 3
	// RejectShape: the record's servers-per-sample does not match the
	// session's cluster.
	RejectShape = 4
	// RejectNonFinite: the payload carried NaN or ±Inf.
	RejectNonFinite = 5
	// RejectOther: any other per-record failure.
	RejectOther = 6
)

// AckStatusName returns the metrics label for an ack status.
func AckStatusName(status byte) string {
	switch status {
	case AckOK:
		return "ok"
	case AckPartial:
		return "partial"
	case AckBackpressure:
		return "backpressure"
	case AckDraining:
		return "draining"
	case AckMalformed:
		return "malformed"
	}
	return "unknown"
}

// AckReject is one rejected record inside an ack: the reason code and
// the record's session id. When decoded, ID aliases the reader's buffer
// and is valid until the next ack is read.
type AckReject struct {
	Reason byte
	ID     []byte
}

// Ack is one decoded (or to-be-encoded) ack frame.
type Ack struct {
	Seq     uint64
	Status  byte
	Records uint32 // accepted record count
	Samples uint32 // accepted sample count
	Rejects []AckReject
}

// AppendStream appends a data-frame envelope followed by frame to dst
// and returns the extended slice. frame must be a complete wire frame
// (as produced by Encoder.Frame).
func AppendStream(dst []byte, seq uint64, frame []byte) []byte {
	dst = append(dst, streamMagic0, streamMagic1, StreamVersion, StreamData)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(StreamHeaderSize+len(frame)))
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	return append(dst, frame...)
}

// AppendAck encodes a into dst and returns the extended slice. A caller
// that reuses dst across acks encodes with zero allocations.
func AppendAck(dst []byte, a *Ack) []byte {
	total := AckHeaderSize
	for i := range a.Rejects {
		total += 2 + len(a.Rejects[i].ID)
	}
	dst = append(dst, ackMagic0, ackMagic1, AckVersion, a.Status)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(total))
	dst = binary.LittleEndian.AppendUint64(dst, a.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, a.Records)
	dst = binary.LittleEndian.AppendUint32(dst, a.Samples)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.Rejects)))
	for i := range a.Rejects {
		r := &a.Rejects[i]
		dst = append(dst, r.Reason, uint8(len(r.ID)))
		dst = append(dst, r.ID...)
	}
	return dst
}

// DecodeAck parses one complete ack frame from buf into a. Reject IDs
// alias buf. a.Rejects is reused when its capacity suffices, so a
// caller decoding acks in a loop allocates only while the reject list
// grows.
func DecodeAck(buf []byte, a *Ack) error {
	if len(buf) < AckHeaderSize {
		return fmt.Errorf("%w: %d ack header bytes, want %d", ErrTruncated, len(buf), AckHeaderSize)
	}
	if buf[0] != ackMagic0 || buf[1] != ackMagic1 {
		return fmt.Errorf("%w: ack magic 0x%02x%02x", ErrBadMagic, buf[0], buf[1])
	}
	if buf[2] != AckVersion {
		return fmt.Errorf("%w: ack version %d (want %d)", ErrVersion, buf[2], AckVersion)
	}
	if buf[3] > AckMalformed {
		return fmt.Errorf("%w: ack status %d", ErrMalformed, buf[3])
	}
	total := binary.LittleEndian.Uint32(buf[4:8])
	if int64(total) != int64(len(buf)) {
		return fmt.Errorf("%w: ack header says %d bytes, buffer has %d", ErrMalformed, total, len(buf))
	}
	a.Status = buf[3]
	a.Seq = binary.LittleEndian.Uint64(buf[8:16])
	a.Records = binary.LittleEndian.Uint32(buf[16:20])
	a.Samples = binary.LittleEndian.Uint32(buf[20:24])
	rejects := int(binary.LittleEndian.Uint32(buf[24:28]))
	// Each reject entry occupies at least 3 bytes (reason, idLen, 1 id
	// byte); bound the claimed count before looping.
	if int64(rejects)*3 > int64(len(buf)-AckHeaderSize) {
		return fmt.Errorf("%w: %d rejects cannot fit in %d bytes", ErrMalformed, rejects, len(buf)-AckHeaderSize)
	}
	a.Rejects = a.Rejects[:0]
	off := AckHeaderSize
	for i := 0; i < rejects; i++ {
		if off+2 > len(buf) {
			return fmt.Errorf("%w: reject entry header", ErrTruncated)
		}
		reason := buf[off]
		idLen := int(buf[off+1])
		off += 2
		if idLen < 1 || idLen > MaxIDLen {
			return fmt.Errorf("%w: reject id length %d out of [1, %d]", ErrMalformed, idLen, MaxIDLen)
		}
		if off+idLen > len(buf) {
			return fmt.Errorf("%w: reject id", ErrTruncated)
		}
		a.Rejects = append(a.Rejects, AckReject{Reason: reason, ID: buf[off : off+idLen]})
		off += idLen
	}
	if off != len(buf) {
		return fmt.Errorf("%w: %d trailing ack bytes", ErrMalformed, len(buf)-off)
	}
	return nil
}

// StreamReader walks the data frames of one persistent connection. It
// owns a single read buffer that is reused (and only grown) across
// frames, so a steady-state connection reads without allocating.
type StreamReader struct {
	br  *bufio.Reader
	buf []byte
}

// NewStreamReader wraps r for frame-at-a-time reading.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next reads the next data frame, returning its sequence number and the
// embedded wire frame. The frame slice is valid until the next call.
// A clean end of stream (connection closed between frames) returns
// io.EOF; any mid-frame truncation or header corruption wraps
// ErrMalformed — the caller should drop the connection, since the
// stream cannot be resynchronized.
func (sr *StreamReader) Next() (seq uint64, frame []byte, err error) {
	var hdr [StreamHeaderSize]byte
	if _, err := io.ReadFull(sr.br, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: stream header: %v", ErrTruncated, err)
	}
	if hdr[0] != streamMagic0 || hdr[1] != streamMagic1 {
		return 0, nil, fmt.Errorf("%w: stream magic 0x%02x%02x", ErrBadMagic, hdr[0], hdr[1])
	}
	if hdr[2] != StreamVersion {
		return 0, nil, fmt.Errorf("%w: stream version %d (want %d)", ErrVersion, hdr[2], StreamVersion)
	}
	if hdr[3] != StreamData {
		return 0, nil, fmt.Errorf("%w: stream type %d", ErrMalformed, hdr[3])
	}
	total := binary.LittleEndian.Uint32(hdr[4:8])
	if total < StreamHeaderSize+HeaderSize || total > StreamHeaderSize+MaxFrameLen {
		return 0, nil, fmt.Errorf("%w: stream frame length %d out of [%d, %d]",
			ErrMalformed, total, StreamHeaderSize+HeaderSize, StreamHeaderSize+MaxFrameLen)
	}
	seq = binary.LittleEndian.Uint64(hdr[8:16])
	n := int(total) - StreamHeaderSize
	if cap(sr.buf) < n {
		sr.buf = make([]byte, n)
	}
	sr.buf = sr.buf[:n]
	if _, err := io.ReadFull(sr.br, sr.buf); err != nil {
		return 0, nil, fmt.Errorf("%w: stream payload: %v", ErrTruncated, err)
	}
	return seq, sr.buf, nil
}

// AckReader walks the ack frames coming back over a stream connection,
// reusing one buffer the same way StreamReader does.
type AckReader struct {
	br  *bufio.Reader
	buf []byte
}

// NewAckReader wraps r for ack-at-a-time reading. If r is already a
// *bufio.Reader it is used directly (no double buffering).
func NewAckReader(r io.Reader) *AckReader {
	if br, ok := r.(*bufio.Reader); ok {
		return &AckReader{br: br}
	}
	return &AckReader{br: bufio.NewReaderSize(r, 16<<10)}
}

// Next reads and decodes the next ack into a. Reject IDs alias the
// reader's buffer and are valid until the next call. A clean end of
// stream returns io.EOF.
func (ar *AckReader) Next(a *Ack) error {
	var hdr [AckHeaderSize]byte
	if _, err := io.ReadFull(ar.br, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("%w: ack header: %v", ErrTruncated, err)
	}
	total := binary.LittleEndian.Uint32(hdr[4:8])
	if total < AckHeaderSize || total > MaxAckLen {
		return fmt.Errorf("%w: ack length %d out of [%d, %d]", ErrMalformed, total, AckHeaderSize, MaxAckLen)
	}
	n := int(total)
	if cap(ar.buf) < n {
		ar.buf = make([]byte, n)
	}
	ar.buf = ar.buf[:n]
	copy(ar.buf, hdr[:])
	if _, err := io.ReadFull(ar.br, ar.buf[AckHeaderSize:]); err != nil {
		return fmt.Errorf("%w: ack payload: %v", ErrTruncated, err)
	}
	return DecodeAck(ar.buf, a)
}
