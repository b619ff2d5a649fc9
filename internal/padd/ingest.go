package padd

import (
	"errors"
	"io"

	"repro/internal/padd/wire"
)

// frameIngest is the reusable state for routing one wire frame's
// records into sessions: the zero-copy decoder and the scratch ack that
// collects the per-record outcome — accepted counts and rejects, whose
// IDs alias the frame buffer, so the ack must be encoded before the
// buffer is reused. A stream connection holds one for its whole life.
type frameIngest struct {
	d   wire.Decoder
	rec wire.Record
	ack wire.Ack

	frameErr error // frame went syntactically bad (header or mid-decode)
	allFull  bool  // every rejection was queue backpressure
	allDrain bool  // every rejection was a stopping session
}

func (fi *frameIngest) reset() {
	fi.ack.Records, fi.ack.Samples = 0, 0
	fi.ack.Rejects = fi.ack.Rejects[:0]
	fi.frameErr = nil
	fi.allFull, fi.allDrain = true, true
}

func (fi *frameIngest) reject(id []byte, reason byte) {
	fi.allFull = fi.allFull && reason == wire.RejectQueueFull
	fi.allDrain = fi.allDrain && reason == wire.RejectStopping
	fi.ack.Rejects = append(fi.ack.Rejects, wire.AckReject{Reason: reason, ID: id})
}

// ingestFrame routes one wire frame's records into their sessions:
// decode, session lookup, payload conversion into a pooled flat buffer,
// shape check, bounded enqueue. Each record succeeds or fails
// independently; a frame that goes syntactically bad mid-decode stops
// there with frameErr set, keeping every record already enqueued (the
// protocol never un-accepts).
func (m *Manager) ingestFrame(frame []byte, fi *frameIngest) {
	fi.reset()
	if err := fi.d.Reset(frame); err != nil {
		fi.frameErr = err
		return
	}
	rec := &fi.rec
	for {
		err := fi.d.Next(rec)
		if err == io.EOF {
			return
		}
		if err != nil {
			fi.frameErr = err
			return
		}
		sess, err := m.lookupBytes(rec.ID)
		if err != nil {
			fi.reject(rec.ID, wire.RejectUnknownSession)
			continue
		}
		flat, err := rec.FloatsInto(getFlat(rec.Values()))
		if err != nil {
			putFlat(flat)
			fi.reject(rec.ID, wire.RejectNonFinite)
			continue
		}
		if rec.Servers != sess.st.TotalServers() {
			putFlat(flat)
			fi.reject(rec.ID, wire.RejectShape)
			continue
		}
		if err := sess.EnqueueFlat(flat, rec.Samples); err != nil {
			putFlat(flat)
			reason := byte(wire.RejectOther)
			switch {
			case errors.Is(err, ErrQueueFull):
				reason = wire.RejectQueueFull
			case errors.Is(err, ErrStopping):
				reason = wire.RejectStopping
			}
			fi.reject(rec.ID, reason)
			continue
		}
		fi.ack.Records++
		fi.ack.Samples += uint32(rec.Samples)
	}
}

// ackStatus maps the result onto the binary ack statuses.
// AckBackpressure (the JSON route's 429) and AckDraining (its 503) are
// only sent when nothing in the frame landed, so a client may resend
// the whole frame.
func (fi *frameIngest) ackStatus() byte {
	switch {
	case fi.frameErr != nil:
		return wire.AckMalformed
	case len(fi.ack.Rejects) == 0:
		return wire.AckOK
	case fi.ack.Records > 0:
		return wire.AckPartial
	case fi.allFull:
		return wire.AckBackpressure
	case fi.allDrain:
		return wire.AckDraining
	default:
		return wire.AckPartial
	}
}

// appendAck encodes the result as one binary ack frame into dst,
// reusing the scratch Ack so steady-state acking does not allocate. The
// reject IDs alias the ingested frame's buffer; the ack must be encoded
// before that buffer is reused.
func (fi *frameIngest) appendAck(dst []byte, seq uint64) []byte {
	fi.ack.Seq = seq
	fi.ack.Status = fi.ackStatus()
	return wire.AppendAck(dst, &fi.ack)
}
