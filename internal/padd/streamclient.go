package padd

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/padd/wire"
)

// StreamClient drives one persistent ingest stream: Send writes wire
// frames wrapped in sequence-numbered envelopes, ReadAck collects the
// daemon's binary acks. Sends are buffered; ReadAck flushes before
// blocking so a stop-and-wait caller cannot deadlock on its own buffer.
// The zero sequence number is never used, so callers can treat 0 as
// "unsent". Not safe for concurrent use; one goroutine owns a client.
type StreamClient struct {
	conn io.ReadWriteCloser
	bw   *bufio.Writer
	ar   *wire.AckReader
	seq  uint64
	env  []byte // reusable envelope scratch
}

// DialStream connects to a padd daemon's base URL (http://host:port)
// and upgrades POST /v1/stream into a persistent ingest stream.
func DialStream(base string) (*StreamClient, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("padd: stream dial: %w", err)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("padd: stream dial: scheme %q not supported", u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, fmt.Errorf("padd: stream dial: %w", err)
	}
	req := "POST /v1/stream HTTP/1.1\r\nHost: " + u.Host +
		"\r\nUpgrade: " + StreamProtocol +
		"\r\nConnection: Upgrade\r\nContent-Length: 0\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		conn.Close()
		return nil, fmt.Errorf("padd: stream upgrade: %w", err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("padd: stream upgrade: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
		resp.Body.Close()
		conn.Close()
		return nil, fmt.Errorf("padd: stream upgrade: HTTP %d: %s",
			resp.StatusCode, strings.TrimSpace(string(body)))
	}
	// Acks are read through br: it may hold bytes read past the 101.
	return &StreamClient{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 64<<10),
		ar:   wire.NewAckReader(br),
	}, nil
}

// Send buffers one wire frame as the next data frame and returns its
// sequence number (the matching ack echoes it). The frame is not
// guaranteed on the wire until Flush or ReadAck.
func (c *StreamClient) Send(frame []byte) (uint64, error) {
	c.seq++
	c.env = wire.AppendStream(c.env[:0], c.seq, frame)
	if _, err := c.bw.Write(c.env); err != nil {
		return c.seq, err
	}
	return c.seq, nil
}

// Flush pushes buffered frames onto the wire.
func (c *StreamClient) Flush() error { return c.bw.Flush() }

// ReadAck flushes, then reads the next ack into a. Acks arrive strictly
// in send order. Reject IDs alias the client's read buffer and are
// valid until the next ReadAck.
func (c *StreamClient) ReadAck(a *wire.Ack) error {
	if err := c.bw.Flush(); err != nil {
		return err
	}
	return c.ar.Next(a)
}

// Close hangs up. Unacked frames may or may not have been ingested; a
// reconnecting client must treat them as lost and resend (at-least-once
// delivery — acked frames are never lost, resent unacked frames may
// duplicate).
func (c *StreamClient) Close() error { return c.conn.Close() }
