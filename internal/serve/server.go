package serve

// Process lifecycle shared by cmd/dpu-serve and cmd/dpu-gateway: Run
// binds, serves on the hardened http.Server, and runs the bounded drain
// sequence when its context ends. It lives here (not in the cmds) so the
// two binaries cannot drift apart on connection hygiene or shutdown, and
// so the slow-loris, wedged-drain and exit-contract tests run in-package.

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"
)

// DrainTimeout bounds Run's whole shutdown sequence: the drain steps and
// the listener shutdown share this one deadline.
const DrainTimeout = 10 * time.Second

// Default connection timeouts for NewHTTPServer. ReadTimeout must cover
// a 64 MiB body on a slow-but-honest link; ReadHeaderTimeout only has to
// cover a handful of header lines, so it is much tighter — it is the
// slow-loris bound, met before any handler goroutine is committed.
const (
	DefaultReadTimeout       = 30 * time.Second
	DefaultReadHeaderTimeout = 10 * time.Second
	DefaultIdleTimeout       = 2 * time.Minute
)

// NewHTTPServer builds the http.Server every serving binary listens on,
// hardened against clients that hold connections without progressing: a
// connection that stalls mid-headers is closed at ReadHeaderTimeout, one
// that stalls mid-body at ReadTimeout, and an idle keep-alive connection
// is reclaimed at IdleTimeout. Without these a single slow-loris client
// pins a connection forever. Non-positive timeouts take the defaults above;
// ReadHeaderTimeout is the smaller of DefaultReadHeaderTimeout and the
// read timeout. There is deliberately no WriteTimeout: it would start
// ticking when the handler does and kill legitimately long executions of
// large batches; the drain path bounds handler lifetime instead.
func NewHTTPServer(addr string, h http.Handler, readTimeout, idleTimeout time.Duration) *http.Server {
	if readTimeout <= 0 {
		readTimeout = DefaultReadTimeout
	}
	if idleTimeout <= 0 {
		idleTimeout = DefaultIdleTimeout
	}
	headerTimeout := DefaultReadHeaderTimeout
	if readTimeout < headerTimeout {
		headerTimeout = readTimeout
	}
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadTimeout:       readTimeout,
		ReadHeaderTimeout: headerTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// DrainWithin runs steps sequentially and returns true when all of them
// complete within d, false when the deadline passes first — in which
// case the remaining steps are abandoned (the goroutine running them is
// left behind; the caller is about to exit the process). This is the
// shutdown bound for the whole drain sequence: without it a single
// wedged step (a store flush on a dead disk) blocks process exit
// forever, because only the final listener shutdown ever carried a
// deadline.
func DrainWithin(d time.Duration, steps ...func()) bool {
	done := make(chan struct{})
	go func() {
		for _, step := range steps {
			step()
		}
		close(done)
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// Run serves h on addr until ctx is done, then shuts down: the drain
// steps run in order while the listener still answers (so /healthz can
// report 503 to a gateway), then the listener closes. Both share one
// DrainTimeout deadline. When debugAddr is set, a NewDebugServer listens
// there too; it has no drain and closes when Run returns. Both addresses
// are bound before anything is served, so a taken one is a startup
// error. Run returns nil only after a complete drain and shutdown, and
// an error when a bind fails or the deadline passes; name prefixes its
// log lines and errors.
func Run(ctx context.Context, name, addr, debugAddr string, h http.Handler, drain ...func()) error {
	return run(ctx, name, addr, debugAddr, h, DrainTimeout, drain)
}

// run is Run with the shutdown deadline as a parameter, so tests can
// miss it in milliseconds.
func run(ctx context.Context, name, addr, debugAddr string, h http.Handler, timeout time.Duration, drain []func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("%s: debug listener: %w", name, err)
		}
		ds := NewDebugServer(debugAddr)
		defer ds.Close()
		go ds.Serve(dln)
		log.Printf("%s: pprof debug listener on %s (separate from the serving port)", name, dln.Addr())
	}
	hs := NewHTTPServer(addr, h, 0, 0)
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	log.Printf("%s listening on %s", name, ln.Addr())

	select {
	case err := <-served:
		return fmt.Errorf("%s: %w", name, err)
	case <-ctx.Done():
	}
	log.Printf("%s: draining (bounded by %v)", name, timeout)
	deadline := time.Now().Add(timeout)
	if !DrainWithin(timeout, drain...) {
		hs.Close()
		return fmt.Errorf("%s: drain did not complete within %v", name, timeout)
	}
	sctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
		return fmt.Errorf("%s: shutdown: %w", name, err)
	}
	return nil
}
