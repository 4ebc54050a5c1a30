package serve

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
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

// freeAddr returns a loopback address nothing listens on. Run binds the
// address it is given, so the test needs to know the port beforehand.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func healthz(addr string) (int, error) {
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestRunDrainsThenReturns: once ctx ends, Run runs the drain steps in
// order while the listener still answers — /healthz says 503 mid-drain,
// which is how a gateway learns to route around the process — then
// closes the port and returns nil.
func TestRunDrainsThenReturns(t *testing.T) {
	srv := New(engine.New(engine.Options{}), Options{})
	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var steps []string
	midDrain, release := make(chan struct{}), make(chan struct{})
	returned := make(chan error, 1)
	go func() {
		returned <- Run(ctx, "test", addr, "", srv.Handler(),
			func() { steps = append(steps, "drain"); srv.Drain() },
			func() { steps = append(steps, "hold"); close(midDrain); <-release },
			func() { steps = append(steps, "flush") },
		)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, err := healthz(addr); err == nil && code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Run never answered /healthz")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	<-midDrain
	if code, err := healthz(addr); err != nil || code != http.StatusServiceUnavailable {
		t.Errorf("mid-drain healthz = %d, %v; want 503", code, err)
	}
	close(release)
	select {
	case err := <-returned:
		if err != nil {
			t.Fatalf("Run = %v after a clean drain, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after its drain completed")
	}
	if want := []string{"drain", "hold", "flush"}; !reflect.DeepEqual(steps, want) {
		t.Errorf("drain steps ran as %v, want %v", steps, want)
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Error("port still accepts connections after Run returned")
	}
}

// TestRunErrorsWhenDrainMissesDeadline: a wedged drain step makes Run
// return an error, so the process exits non-zero instead of reporting a
// clean stop.
func TestRunErrorsWhenDrainMissesDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	wedged := make(chan struct{})
	defer close(wedged)
	err := run(ctx, "test", freeAddr(t), "", http.NotFoundHandler(), 50*time.Millisecond,
		[]func(){func() { <-wedged }})
	if err == nil || !strings.Contains(err.Error(), "drain did not complete") {
		t.Errorf("run = %v, want a missed-deadline error", err)
	}
}

// TestRunFailsWhenAddressTaken: a serving or debug address that is
// already bound is a startup error, and the handler never sees a request
// — a missing pprof listener is not discovered later by whoever reads
// /debug/pprof.
func TestRunFailsWhenAddressTaken(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	var served atomic.Int64
	h := http.HandlerFunc(func(http.ResponseWriter, *http.Request) { served.Add(1) })
	for _, tc := range []struct{ name, addr, debugAddr string }{
		{"addr", taken.Addr().String(), ""},
		{"debug-addr", freeAddr(t), taken.Addr().String()},
	} {
		// The context is live: only a bind failure can make Run return.
		errc := make(chan error, 1)
		go func() { errc <- Run(context.Background(), "test", tc.addr, tc.debugAddr, h) }()
		select {
		case err := <-errc:
			if err == nil {
				t.Errorf("%s taken: Run returned nil", tc.name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s taken: Run is serving", tc.name)
		}
		if tc.addr != taken.Addr().String() {
			if conn, err := net.Dial("tcp", tc.addr); err == nil {
				conn.Close()
				t.Errorf("%s taken: serving port left open", tc.name)
			}
		}
	}
	if n := served.Load(); n != 0 {
		t.Errorf("handler served %d requests", n)
	}
}

// TestPprofOnDebugServerOnly: the serving handler has no /debug/pprof
// (404), and NewDebugServer's handler answers it (200).
func TestPprofOnDebugServerOnly(t *testing.T) {
	s := New(engine.New(engine.Options{}), Options{})
	defer s.Drain()
	for _, tc := range []struct {
		name string
		h    http.Handler
		want int
	}{
		{"serving", s.Handler(), http.StatusNotFound},
		{"debug", NewDebugServer("").Handler, http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
		if rec.Code != tc.want {
			t.Errorf("%s handler: /debug/pprof/cmdline = %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
}
