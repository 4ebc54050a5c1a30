package serve

// Opt-in pprof debug listener that Run starts for cmd/dpu-serve and
// cmd/dpu-gateway. The profiling surface is deliberately a SEPARATE
// listener on a separate mux: the serving mux never exposes
// /debug/pprof, so an operator can bind the debug address to loopback
// (or not at all — the default) while the serving port faces traffic,
// and a profiling request can never be confused with, rate-limit, or
// drain-block a serving request. The handlers are registered explicitly
// rather than through net/http/pprof's DefaultServeMux side effect, so
// nothing leaks onto any other mux in the process.

import (
	"net/http"
	nhpprof "net/http/pprof"
)

// NewDebugServer builds the pprof server for addr. It is independent of
// the serving listener and has no drain semantics: Run closes it on
// return.
func NewDebugServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", nhpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", nhpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", nhpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", nhpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", nhpprof.Trace)
	return &http.Server{Addr: addr, Handler: mux}
}
