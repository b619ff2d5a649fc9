package padd_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/padd"
	"repro/internal/padd/wire"
)

// streamFixture boots a daemon with one session and dials a stream.
func streamFixture(t *testing.T, cfg padd.SessionConfig) (*padd.Manager, *httptest.Server, *padd.StreamClient) {
	t.Helper()
	mgr := padd.NewManager()
	t.Cleanup(func() { mgr.Shutdown(context.Background()) })
	srv := httptest.NewServer(padd.NewServer(mgr))
	t.Cleanup(srv.Close)
	if cfg.ID != "" {
		if _, err := mgr.Create(cfg); err != nil {
			t.Fatal(err)
		}
	}
	sc, err := padd.DialStream(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	return mgr, srv, sc
}

func frameFor(t *testing.T, id string, samples, servers int, u float64) []byte {
	t.Helper()
	flat := make([]float64, samples*servers)
	for i := range flat {
		flat[i] = u
	}
	var enc wire.Encoder
	if err := enc.AppendFlat(id, samples, servers, flat); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), enc.Frame()...)
}

func waitTicks(t *testing.T, mgr *padd.Manager, id string, want int64) {
	t.Helper()
	sess, err := mgr.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sess.Status().Ticks < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: stuck at %d/%d ticks", id, sess.Status().Ticks, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamIngest drives the happy path through the full upgrade:
// many frames pipelined over one connection, each acked in order with
// the accepted counts, and every acked sample ticked by the engine.
func TestStreamIngest(t *testing.T) {
	mgr, _, sc := streamFixture(t, padd.SessionConfig{
		ID: "s1", Scheme: "PAD", Racks: 1, ServersPerRack: 2, QueueDepth: 64,
	})

	const frames = 16
	const samples = 4
	frame := frameFor(t, "s1", samples, 2, 0.5)
	seqs := make([]uint64, frames)
	for i := range seqs {
		seq, err := sc.Send(frame)
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = seq
	}
	var a wire.Ack
	for i := 0; i < frames; i++ {
		if err := sc.ReadAck(&a); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if a.Seq != seqs[i] {
			t.Errorf("ack %d: seq %d, want %d (in-order acking)", i, a.Seq, seqs[i])
		}
		if a.Status != wire.AckOK || a.Records != 1 || a.Samples != samples {
			t.Errorf("ack %d: %+v, want AckOK 1 record %d samples", i, a, samples)
		}
	}
	waitTicks(t, mgr, "s1", frames*samples)
}

// TestStreamRejects pins the per-record NACK semantics on a live
// stream: unknown sessions, shape mismatches, non-finite payloads and
// queue backpressure come back as typed binary rejects without
// disturbing the connection, a frame that partly lands acks what
// landed, and backpressure clears once the session drains. The paused
// session's depth-1 queue fills exactly once, on the mixed frame.
func TestStreamRejects(t *testing.T) {
	mgr, _, sc := streamFixture(t, padd.SessionConfig{
		ID: "s1", Scheme: "Conv", Racks: 1, ServersPerRack: 2, QueueDepth: 1, Paused: true,
	})

	var enc wire.Encoder
	for _, id := range []string{"s1", "ghost"} {
		if err := enc.AppendFlat(id, 1, 2, []float64{0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	mixed := enc.Frame()
	good := frameFor(t, "s1", 1, 2, 0.5)

	for _, c := range []struct {
		name             string
		frame            []byte
		status           byte
		records, samples uint32
		reason           byte // of the frame's one reject
		id               string
	}{
		// A lone unknown record is neither backpressure nor drain, so it
		// acks AckPartial with nothing accepted.
		{"unknown session", frameFor(t, "ghost", 1, 2, 0.5), wire.AckPartial, 0, 0, wire.RejectUnknownSession, "ghost"},
		{"shape mismatch", frameFor(t, "s1", 1, 5, 0.5), wire.AckPartial, 0, 0, wire.RejectShape, "s1"},
		{"non-finite", frameFor(t, "s1", 1, 2, math.NaN()), wire.AckPartial, 0, 0, wire.RejectNonFinite, "s1"},
		{"mixed frame", mixed, wire.AckPartial, 1, 1, wire.RejectUnknownSession, "ghost"},
		{"queue full", good, wire.AckBackpressure, 0, 0, wire.RejectQueueFull, "s1"},
	} {
		if _, err := sc.Send(c.frame); err != nil {
			t.Fatal(err)
		}
		var a wire.Ack
		if err := sc.ReadAck(&a); err != nil {
			t.Fatal(err)
		}
		if a.Status != c.status || a.Records != c.records || a.Samples != c.samples || len(a.Rejects) != 1 ||
			a.Rejects[0].Reason != c.reason || string(a.Rejects[0].ID) != c.id {
			t.Fatalf("%s: ack %+v, want status %d, %d records, %d samples, one reject (%d, %q)",
				c.name, a, c.status, c.records, c.samples, c.reason, c.id)
		}
	}

	// The 429-equivalent is per-frame, not a stalled stream: resume the
	// session and the retried frame goes through on the same connection.
	sess, err := mgr.Get("s1")
	if err != nil {
		t.Fatal(err)
	}
	sess.Resume()
	var a wire.Ack
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := sc.Send(good); err != nil {
			t.Fatal(err)
		}
		if err := sc.ReadAck(&a); err != nil {
			t.Fatal(err)
		}
		if a.Status == wire.AckOK {
			break
		}
		if a.Status != wire.AckBackpressure || time.Now().After(deadline) {
			t.Fatalf("retry ack: %+v", a)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamMalformedDrops pins the resync contract: a frame whose
// embedded payload is corrupt is acked AckMalformed and the server
// hangs up (a byte stream cannot resync past corruption); records
// decoded before the corruption stay accepted.
func TestStreamMalformedDrops(t *testing.T) {
	mgr, _, sc := streamFixture(t, padd.SessionConfig{
		ID: "s1", Scheme: "Conv", Racks: 1, ServersPerRack: 2,
	})

	frame := frameFor(t, "s1", 2, 2, 0.5)
	bad := append([]byte(nil), frame...)
	bad[2] = 99 // embedded wire version: envelope fine, frame malformed
	if _, err := sc.Send(bad); err != nil {
		t.Fatal(err)
	}
	var a wire.Ack
	if err := sc.ReadAck(&a); err != nil {
		t.Fatal(err)
	}
	if a.Status != wire.AckMalformed {
		t.Fatalf("malformed ack: %+v", a)
	}
	if err := sc.ReadAck(&a); !errors.Is(err, io.EOF) && err == nil {
		t.Fatalf("connection survived malformed frame: %v", err)
	}

	// A fresh connection works; the manager held no poisoned state.
	_ = mgr
}

// TestStreamReconnect proves the reconnect contract end to end: a
// client that loses its connection mid-stream (acks unread) reconnects
// and resends everything unacked. Acked frames are never lost, and the
// lossless-drain invariant ticks == accepted + coasts − discarded holds
// across the disconnect.
func TestStreamReconnect(t *testing.T) {
	mgr := padd.NewManager()
	defer mgr.Shutdown(context.Background())
	srv := httptest.NewServer(padd.NewServer(mgr))
	defer srv.Close()
	if _, err := mgr.Create(padd.SessionConfig{
		ID: "r1", Scheme: "PAD", Racks: 1, ServersPerRack: 2, QueueDepth: 256,
	}); err != nil {
		t.Fatal(err)
	}

	const samples = 4
	frame := frameFor(t, "r1", samples, 2, 0.5)

	// First connection: send 3 frames, read the ack for only the first,
	// then drop the link without reading the rest.
	sc1, err := padd.DialStream(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sc1.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	var a wire.Ack
	if err := sc1.ReadAck(&a); err != nil {
		t.Fatal(err)
	}
	if a.Status != wire.AckOK {
		t.Fatalf("first ack: %+v", a)
	}
	acked := int64(a.Samples)
	sc1.Close()

	// Reconnect and resend the 2 unacked frames (at-least-once: the
	// server may have ingested them before the cut, duplicating is the
	// client's accepted cost for never losing acked data).
	sc2, err := padd.DialStream(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.Close()
	resent := int64(0)
	for i := 0; i < 2; i++ {
		if _, err := sc2.Send(frame); err != nil {
			t.Fatal(err)
		}
		if err := sc2.ReadAck(&a); err != nil {
			t.Fatal(err)
		}
		if a.Status != wire.AckOK {
			t.Fatalf("resend ack %d: %+v", i, a)
		}
		resent += int64(a.Samples)
	}

	if err := mgr.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	sess, err := mgr.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Status()
	// Acked ⇒ enqueued: the session holds at least every acked sample,
	// at most everything sent across both connections.
	if st.Accepted < acked+resent || st.Accepted > 3*samples+2*samples {
		t.Errorf("accepted %d samples; acked %d, upper bound %d", st.Accepted, acked+resent, 5*samples)
	}
	if st.Ticks != st.Accepted+st.Coasts-st.Discarded {
		t.Errorf("lossless-drain broke across reconnect: %d ticks, %d accepted, %d coasts, %d discarded",
			st.Ticks, st.Accepted, st.Coasts, st.Discarded)
	}
	if st.Discarded != 0 {
		t.Errorf("%d samples discarded", st.Discarded)
	}
}

// TestStreamShutdownHangsUp: Shutdown closes live stream connections
// after flagging the manager closed, and new upgrades are refused 503.
func TestStreamShutdownHangsUp(t *testing.T) {
	mgr, srv, sc := streamFixture(t, padd.SessionConfig{
		ID: "s1", Scheme: "Conv", Racks: 1, ServersPerRack: 2,
	})
	if n := mgr.StreamConnections(); n != 1 {
		t.Fatalf("%d stream connections, want 1", n)
	}
	if err := mgr.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	var a wire.Ack
	if err := sc.ReadAck(&a); err == nil {
		t.Fatal("read after shutdown succeeded")
	}
	// The handler goroutine unregisters after its reader unblocks; give
	// it a moment rather than racing the defer.
	deadline := time.Now().Add(5 * time.Second)
	for mgr.StreamConnections() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d stream connections after shutdown", mgr.StreamConnections())
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(srv.URL+"/v1/stream", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("upgrade after shutdown: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestStreamIdleTimeout: an upgraded stream keeps the idle limit of the
// http.Server that accepted it. A silent peer is hung up on and
// unregistered once no frame has arrived for IdleTimeout, while a peer
// that keeps sending inside the limit keeps getting acks.
func TestStreamIdleTimeout(t *testing.T) {
	mgr := padd.NewManager()
	t.Cleanup(func() { mgr.Shutdown(context.Background()) })
	srv := httptest.NewUnstartedServer(padd.NewServer(mgr))
	srv.Config.IdleTimeout = 150 * time.Millisecond
	srv.Start()
	t.Cleanup(srv.Close)
	if _, err := mgr.Create(padd.SessionConfig{
		ID: "s1", Scheme: "Conv", Racks: 1, ServersPerRack: 2, QueueDepth: 64,
	}); err != nil {
		t.Fatal(err)
	}
	silent, err := padd.DialStream(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	busy, err := padd.DialStream(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()

	frame := frameFor(t, "s1", 1, 2, 0.5)
	var a wire.Ack
	for start := time.Now(); time.Since(start) < 600*time.Millisecond; time.Sleep(50 * time.Millisecond) {
		if _, err := busy.Send(frame); err != nil {
			t.Fatal(err)
		}
		if err := busy.ReadAck(&a); err != nil {
			t.Fatalf("busy stream dropped after %v: %v", time.Since(start), err)
		}
		if a.Status != wire.AckOK {
			t.Fatalf("busy stream ack: %+v", a)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for mgr.StreamConnections() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d stream connections, want only the busy one", mgr.StreamConnections())
		}
		time.Sleep(time.Millisecond)
	}
	if err := silent.ReadAck(&a); err == nil {
		t.Error("silent stream still readable after its idle limit")
	}
}

// TestDialStreamIPv6DefaultPort: a bracketed IPv6 host without a port
// dials port 80, as any other host does, instead of failing to parse.
func TestDialStreamIPv6DefaultPort(t *testing.T) {
	ln, err := net.Listen("tcp", "[::1]:0")
	if err != nil {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	ln.Close()
	sc, err := padd.DialStream("http://[::1]")
	if err == nil {
		sc.Close()
	}
	var addrErr *net.AddrError
	if errors.As(err, &addrErr) {
		t.Fatalf("DialStream(http://[::1]): %v", err)
	}
}

// TestStreamMetricsFamilies checks the stream families appear on the
// scrape with real traffic counted.
func TestStreamMetricsFamilies(t *testing.T) {
	mgr, srv, sc := streamFixture(t, padd.SessionConfig{
		ID: "s1", Scheme: "Conv", Racks: 1, ServersPerRack: 2,
	})
	if _, err := sc.Send(frameFor(t, "s1", 2, 2, 0.5)); err != nil {
		t.Fatal(err)
	}
	var a wire.Ack
	if err := sc.ReadAck(&a); err != nil {
		t.Fatal(err)
	}
	_ = mgr
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, w := range []string{
		"padd_stream_connections 1",
		`padd_stream_frames_total{result="ok"} 1`,
		"padd_stream_inflight_window",
	} {
		if !strings.Contains(text, w) {
			t.Errorf("metrics missing %q", w)
		}
	}
}

// TestStreamManyConnections drives several concurrent streams at one
// daemon to shake out reader/writer races (meaningful under -race).
func TestStreamManyConnections(t *testing.T) {
	mgr := padd.NewManager()
	defer mgr.Shutdown(context.Background())
	srv := httptest.NewServer(padd.NewServer(mgr))
	defer srv.Close()

	const conns = 8
	const frames = 20
	const samples = 2
	ids := make([]string, conns)
	for i := range ids {
		ids[i] = fmt.Sprintf("mc-%d", i)
		if _, err := mgr.Create(padd.SessionConfig{
			ID: ids[i], Scheme: "Conv", Racks: 1, ServersPerRack: 2, QueueDepth: 64,
		}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, conns)
	for i := 0; i < conns; i++ {
		go func(id string) {
			sc, err := padd.DialStream(srv.URL)
			if err != nil {
				done <- err
				return
			}
			defer sc.Close()
			var enc wire.Encoder
			flat := []float64{0.4, 0.6, 0.5, 0.5}
			var a wire.Ack
			for f := 0; f < frames; f++ {
				enc.Reset()
				if err := enc.AppendFlat(id, samples, 2, flat); err != nil {
					done <- err
					return
				}
				if _, err := sc.Send(enc.Frame()); err != nil {
					done <- err
					return
				}
				for {
					if err := sc.ReadAck(&a); err != nil {
						done <- err
						return
					}
					if a.Status == wire.AckOK {
						break
					}
					if a.Status != wire.AckBackpressure {
						done <- fmt.Errorf("%s: ack %+v", id, a)
						return
					}
					if _, err := sc.Send(enc.Frame()); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}(ids[i])
	}
	for i := 0; i < conns; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		sess, err := mgr.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		st := sess.Status()
		if st.Accepted != frames*samples {
			t.Errorf("%s: accepted %d, want %d", id, st.Accepted, frames*samples)
		}
		if st.Ticks != st.Accepted+st.Coasts-st.Discarded || st.Discarded != 0 {
			t.Errorf("%s: invariant broke: %+v", id, st)
		}
	}
}
