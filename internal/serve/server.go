package serve

// Process-lifecycle helpers shared by cmd/dpu-serve and cmd/dpu-gateway:
// the hardened http.Server both binaries listen on, and the bounded
// drain sequence both run on SIGINT/SIGTERM. They live here (not in the
// cmds) so the two binaries cannot drift apart on connection hygiene,
// and so the slow-loris and wedged-drain regression tests run in-package.

import (
	"net/http"
	"time"
)

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
// deadline. The real-time timer is
// deliberate — this is a process-shutdown wall-clock bound, not
// scheduling policy; there is no request path (and no FakeClock) here.
//
//lint:allow clockuse
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
