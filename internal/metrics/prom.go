// Prometheus text exposition (format version 0.0.4) over the package's
// histograms. The log-linear buckets are fixed global boundaries shared
// by every Histogram, so a Snapshot maps directly onto a Prometheus
// histogram: each bucket's inclusive upper bound becomes a cumulative
// `le` boundary (both are "≤ upper" semantics), `_sum`/`_count` come
// from the exact tracked sum and count, and a rider `<name>_max` gauge
// preserves the exact max so a scraper can re-derive the same
// conservative, max-clamped quantiles /stats reports.
package metrics

import (
	"fmt"
	"io"
	"strconv"
)

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter emits one /metrics body. Each family's `# TYPE` line is
// written once, on the family's first sample; re-registering a family
// under a different kind is an error surfaced by Err.
type PromWriter struct {
	w     io.Writer
	types map[string]string
	err   error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, types: make(map[string]string)}
}

// Err returns the first error encountered (I/O or a family re-typed).
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) typeLine(name, kind string) {
	if p.err != nil {
		return
	}
	if have, ok := p.types[name]; ok {
		if have != kind {
			p.err = fmt.Errorf("metrics: family %s emitted as both %s and %s", name, have, kind)
		}
		return
	}
	p.types[name] = kind
	_, err := fmt.Fprintf(p.w, "# TYPE %s %s\n", name, kind)
	if err != nil {
		p.err = err
	}
}

func (p *PromWriter) sample(name, labels string, format string, args ...any) {
	if p.err != nil {
		return
	}
	if labels != "" {
		name = name + "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(p.w, "%s "+format+"\n", append([]any{name}, args...)...); err != nil {
		p.err = err
	}
}

// GaugeLabeled emits one labeled sample of a gauge family (the TYPE
// line is shared across calls with the same name).
func (p *PromWriter) GaugeLabeled(name, labels string, v int64) {
	p.typeLine(name, "gauge")
	p.sample(name, labels, "%d", v)
}

// Histogram emits one labeled series of a histogram family from a
// Snapshot: cumulative `_bucket{le=...}` samples over the non-empty
// buckets (sparse `le` values are valid — the boundaries are a pure
// function of the value, identical across every histogram), the `+Inf`
// bucket, `_sum` and `_count`, plus the exact-max rider gauge
// `<name>_max`. labels may be "" or a rendered list like
// `stage="queue_wait"`.
func (p *PromWriter) Histogram(name, labels string, s Snapshot) {
	p.typeLine(name, "histogram")
	le := func(bound string) string {
		if labels == "" {
			return `le="` + bound + `"`
		}
		return labels + `,le="` + bound + `"`
	}
	// The bucket array is read after count under concurrent writers, so
	// its total can exceed s.Count; the exposition must be internally
	// coherent (+Inf == _count), so the bucket total is authoritative.
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		p.sample(name+"_bucket", le(strconv.FormatInt(b.Upper, 10)), "%d", cum)
	}
	p.sample(name+"_bucket", le("+Inf"), "%d", cum)
	p.sample(name+"_sum", labels, "%d", s.Sum)
	p.sample(name+"_count", labels, "%d", cum)
	p.typeLine(name+"_max", "gauge")
	p.sample(name+"_max", labels, "%d", s.Max)
}
