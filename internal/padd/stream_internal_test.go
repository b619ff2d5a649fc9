package padd

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/padd/wire"
)

// TestStreamStalledAckReader: a peer that keeps sending but never reads
// its acks is hung up on once an ack write stalls for the idle limit,
// instead of parking the reader on the full ack window (and holding the
// connection's slot) until the peer hangs up.
func TestStreamStalledAckReader(t *testing.T) {
	m := NewManager()
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	if _, err := m.Create(SessionConfig{
		ID: "s1", Scheme: "Conv", Racks: 1, ServersPerRack: 2, QueueDepth: 64,
	}); err != nil {
		t.Fatal(err)
	}
	var enc wire.Encoder
	if err := enc.AppendFlat("s1", 1, 2, []float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	frame := enc.Frame()

	srv, cli := net.Pipe()
	defer cli.Close()
	if !m.registerStream(srv) {
		t.Fatal("registerStream refused a live manager")
	}
	done := make(chan error, 1)
	go func() { done <- m.serveStream(srv, 100*time.Millisecond) }()
	// The client only writes; its writes fail once serveStream hangs up.
	go func() {
		var buf []byte
		for seq := uint64(1); ; seq++ {
			buf = wire.AppendStream(buf[:0], seq, frame)
			if _, err := cli.Write(buf); err != nil {
				return
			}
		}
	}()

	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("stream whose peer never reads acks still open after 3s")
	}
	if n := m.StreamConnections(); n != 0 {
		t.Fatalf("%d stream connections after the hang-up, want 0", n)
	}
}
