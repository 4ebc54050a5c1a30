package serve

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"dpuv2/internal/engine"
)

// TestSlowLorisConnectionClosed is the regression test for the missing
// server timeouts: a client that sends a partial header block and then
// stalls must have its connection closed by ReadHeaderTimeout, not hold
// it (and its handler slot) forever. Before NewHTTPServer, dpu-serve
// built a bare http.Server with no timeouts at all and this test hangs
// until the test binary's own deadline.
func TestSlowLorisConnectionClosed(t *testing.T) {
	srv := New(engine.New(engine.Options{}), Options{})
	defer srv.Drain()
	const readTimeout = 200 * time.Millisecond
	hs := NewHTTPServer("127.0.0.1:0", srv.Handler(), readTimeout, time.Second)
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Headers started, never finished: the slow-loris shape.
	if _, err := fmt.Fprintf(conn, "POST /execute HTTP/1.1\r\nHost: x\r\nContent-Ty"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	// The server may write a 408 before closing; what matters is that the
	// connection reaches EOF promptly instead of being held open.
	var err2 error
	for err2 == nil {
		_, err2 = conn.Read(make([]byte, 256))
	}
	if ne, ok := err2.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server kept the stalled connection open past %v", time.Since(start))
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("connection closed only after %v, want ~%v", elapsed, readTimeout)
	}

	// An honest request on a fresh connection still works (the timeouts
	// bound stalls, not legitimate traffic).
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	fmt.Fprintf(conn2, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
	resp, err := http.ReadResponse(bufio.NewReader(conn2), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}
}

// TestNewHTTPServerDefaults pins the conservative defaults and the
// header-timeout clamp.
func TestNewHTTPServerDefaults(t *testing.T) {
	hs := NewHTTPServer(":0", nil, 0, 0)
	if hs.ReadTimeout != DefaultReadTimeout || hs.IdleTimeout != DefaultIdleTimeout || hs.ReadHeaderTimeout != DefaultReadHeaderTimeout {
		t.Errorf("defaults = read %v header %v idle %v", hs.ReadTimeout, hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	hs = NewHTTPServer(":0", nil, time.Second, time.Minute)
	if hs.ReadHeaderTimeout != time.Second {
		t.Errorf("header timeout %v not clamped to read timeout 1s", hs.ReadHeaderTimeout)
	}
}

// TestDrainWithinBoundsWedgedStep is the regression test for the
// unbounded shutdown sequence: a drain step that never returns (the
// shape of a store flush on a dead disk) must not block exit past the
// deadline. Before DrainWithin, dpu-serve ran its drain steps inline
// with no deadline; only the final listener shutdown was bounded.
func TestDrainWithinBoundsWedgedStep(t *testing.T) {
	ran := make(chan string, 3)
	wedged := make(chan struct{}) // never closed: the stuck flush
	start := time.Now()
	ok := DrainWithin(100*time.Millisecond,
		func() { ran <- "drain" },
		func() { ran <- "flush"; <-wedged },
		func() { ran <- "close" },
	)
	if ok {
		t.Fatal("DrainWithin reported completion with a wedged step")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("DrainWithin returned after %v, want ~100ms", elapsed)
	}
	if got := []string{<-ran, <-ran}; got[0] != "drain" || got[1] != "flush" {
		t.Errorf("steps ran out of order: %v", got)
	}
	select {
	case s := <-ran:
		t.Errorf("step %q ran past its wedged predecessor", s)
	default:
	}

	// All-fast steps complete in order and report success.
	if !DrainWithin(5*time.Second, func() { ran <- "a" }, func() { ran <- "b" }) {
		t.Fatal("DrainWithin timed out on instant steps")
	}
	if got := []string{<-ran, <-ran}; got[0] != "a" || got[1] != "b" {
		t.Errorf("fast steps ran out of order: %v", got)
	}
}
