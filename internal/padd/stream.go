package padd

// Persistent streaming ingest: one long-lived connection per collector
// carrying an unbounded sequence of data frames, acknowledged with
// compact binary ack frames. The reader goroutine (the serveStream
// caller) decodes each frame through the shared ingest core and hands
// the pre-encoded ack to a writer goroutine over a bounded channel —
// the in-flight window. When the window is full the reader stops
// reading, which surfaces to the client as TCP backpressure; when a
// session's queue is full the frame still gets an immediate
// AckBackpressure/AckPartial NACK, so queue pressure degrades per-frame
// (the 429 equivalent) rather than stalling the whole stream.

import (
	"bufio"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/padd/wire"
)

// streamWindow bounds the acks encoded but not yet written — the
// in-flight frame window. 64 frames ≈ one padload frame-sessions batch;
// deep enough to pipeline, shallow enough that a client that never
// reads acks is throttled within one window.
const streamWindow = 64

// ackBufPool recycles encoded-ack buffers between the reader and writer
// goroutines of every stream connection.
var ackBufPool = sync.Pool{New: func() any { return new([]byte) }}

// registerStream tracks a live stream connection so Shutdown can close
// it; it refuses once the manager is draining.
func (m *Manager) registerStream(c io.Closer) bool {
	m.streamMu.Lock()
	defer m.streamMu.Unlock()
	if m.closed.Load() {
		return false
	}
	if m.streamConns == nil {
		m.streamConns = make(map[io.Closer]struct{})
	}
	m.streamConns[c] = struct{}{}
	return true
}

func (m *Manager) unregisterStream(c io.Closer) {
	m.streamMu.Lock()
	delete(m.streamConns, c)
	m.streamMu.Unlock()
}

// closeStreams hangs up every live stream connection. Called by
// Shutdown after the closed flag is up, so no new connection can
// register concurrently; a dropped connection loses only unacked
// frames, which the reconnect contract allows.
func (m *Manager) closeStreams() {
	m.streamMu.Lock()
	for c := range m.streamConns {
		c.Close()
	}
	m.streamMu.Unlock()
}

// StreamConnections reports the number of live stream connections.
func (m *Manager) StreamConnections() int {
	m.streamMu.Lock()
	defer m.streamMu.Unlock()
	return len(m.streamConns)
}

// serveStream runs one upgraded POST /v1/stream connection, already
// registered with registerStream, until the peer hangs up, the stream
// goes malformed, no frame arrives or no ack write completes within
// idle (when idle > 0), or the manager shuts down. The caller's
// goroutine is the per-connection reader; a second goroutine writes
// acks. Every frame is acknowledged exactly once, in order; a frame
// whose embedded payload goes syntactically bad is acked AckMalformed
// (keeping the records that landed before the corruption) and the
// connection is dropped, since a byte stream cannot resync past
// corruption. It closes and unregisters the connection on return.
func (m *Manager) serveStream(conn net.Conn, idle time.Duration) error {
	defer m.unregisterStream(conn)
	defer conn.Close()

	// Ack writer: drains the window channel, batching flushes (flush
	// only when no more acks are queued). On a write error it keeps
	// draining so the reader never blocks, and the connection dies.
	// Each write gets the idle limit too: a peer that keeps sending but
	// stops reading acks would otherwise park this writer, and the
	// reader behind the full window, until it hangs up.
	acks := make(chan *[]byte, streamWindow)
	writeFailed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		bw := bufio.NewWriterSize(conn, 32<<10)
		failed := false
		for b := range acks {
			if !failed {
				if idle > 0 {
					conn.SetWriteDeadline(time.Now().Add(idle)) //nolint:errcheck // a dead socket fails the write below
				}
				_, err := bw.Write(*b)
				if err == nil && len(acks) == 0 {
					err = bw.Flush()
				}
				if err != nil {
					failed = true
					close(writeFailed)
				}
			}
			*b = (*b)[:0]
			ackBufPool.Put(b)
			m.streamInflight.Add(-1)
		}
	}()
	defer wg.Wait()
	defer close(acks)

	var fi frameIngest
	sr := wire.NewStreamReader(conn)
	for {
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle)) //nolint:errcheck // a dead socket fails the read below
		}
		seq, frame, err := sr.Next()
		if err == io.EOF {
			return nil // clean hangup between frames
		}
		if err != nil {
			// Envelope-level corruption (or a connection cut mid-frame):
			// nothing to ack — the frame never had a sequence number the
			// client can trust — so just drop the connection.
			return err
		}
		m.streamInflight.Add(1)
		m.ingestFrame(frame, &fi)
		status := fi.ackStatus()
		m.noteStreamFrame(status)
		// The ack must be encoded before the next sr.Next overwrites the
		// frame buffer the reject IDs alias.
		b := ackBufPool.Get().(*[]byte)
		*b = fi.appendAck((*b)[:0], seq)
		select {
		case acks <- b:
		case <-writeFailed:
			*b = (*b)[:0]
			ackBufPool.Put(b)
			m.streamInflight.Add(-1)
			return io.ErrClosedPipe
		}
		if status == wire.AckMalformed {
			// Ack what landed, then hang up: the embedded frame went bad
			// and the stream cannot be resynchronized.
			return fi.frameErr
		}
	}
}
