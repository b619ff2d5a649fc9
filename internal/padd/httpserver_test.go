package padd_test

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/padd"
)

// TestHTTPServerTimeouts pins the daemon listener's connection timeouts:
// NewHTTPServer sets both, and a client that opens a connection and never
// finishes its request headers is cut off instead of holding the
// connection (and its serving goroutine) forever.
func TestHTTPServerTimeouts(t *testing.T) {
	mgr := padd.NewManager()
	defer mgr.Shutdown(context.Background())
	h := padd.NewServer(mgr)

	srv := padd.NewHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != h {
		t.Fatalf("server not wired to its address and handler: %q %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Fatalf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want a positive bound", srv.IdleTimeout)
	}

	// The same server, with the header deadline shortened so the test
	// does not wait the full 10 s, must drop a stalled client.
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: padd\r\n"); err != nil {
		t.Fatal(err)
	}
	// Without a header timeout the read below would block until its own
	// 5 s deadline; with one the server closes the connection first.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server kept a stalled connection open for %v", time.Since(start))
	}
}
