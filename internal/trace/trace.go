// Package trace is the request-scoped tracing substrate of the serving
// stack: every layer on the request path (gateway routing, HTTP
// decode/encode, scheduler queue_wait/execute, engine
// resolve/compile/store-decode) records a named span against the one
// Trace that follows the request, and completed traces land in a
// bounded in-process ring plus a slow-trace reservoir queryable over
// GET /traces. Context propagates W3C-traceparent-style across the
// gateway hop, so one trace ID names the request on both sides.
//
// The recorder is built for the serving hot path:
//
//   - a nil tracer (or an unsampled request) costs zero
//     allocations — every method is nil-safe on a nil *Trace;
//   - a sampled request amortizes to zero: Traces are pooled
//     (sync.Pool) and spans append into a preallocated fixed-capacity
//     slice; only Finish, off the latency-critical section, builds the
//     immutable Record that the ring retains.
package trace

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// ID is a 16-byte trace identifier (the W3C trace-id).
type ID [16]byte

// IsZero reports whether id is the invalid all-zero ID.
func (id ID) IsZero() bool { return id == ID{} }

// String renders the 32-hex-digit form.
func (id ID) String() string {
	var b [32]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// ParseID parses a 32-hex-digit trace ID.
func ParseID(s string) (ID, bool) {
	var id ID
	if len(s) != 32 {
		return ID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return ID{}, false
	}
	return id, !id.IsZero()
}

// SpanID is an 8-byte span identifier (the W3C parent-id): the caller's
// handle on a request as it crosses a process boundary.
type SpanID [8]byte

// String renders the 16-hex-digit form.
func (s SpanID) String() string {
	var b [16]byte
	hex.Encode(b[:], s[:])
	return string(b[:])
}

// ID generation: an 8-byte random process prefix (crypto/rand, once)
// plus a scrambled per-process counter. Unique within the process by
// the counter, unique across processes by the prefix, and — unlike
// calling crypto/rand per request — allocation-free on the request
// path.
var (
	idPrefix [8]byte
	idSeq    atomic.Uint64
)

func init() {
	if _, err := crand.Read(idPrefix[:]); err != nil {
		// No entropy source: fall back to a fixed prefix; in-process
		// uniqueness (the counter) still holds.
		copy(idPrefix[:], "dputrace")
	}
}

// splitmix64 scrambles the counter so IDs don't look sequential and a
// zero counter never yields a zero ID half.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewID mints a fresh non-zero trace ID.
func NewID() ID {
	var id ID
	copy(id[:8], idPrefix[:])
	binary.BigEndian.PutUint64(id[8:], splitmix64(idSeq.Add(1)))
	if id.IsZero() {
		id[15] = 1
	}
	return id
}

// NewSpanID mints a fresh non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], splitmix64(idSeq.Add(1)))
	if s == (SpanID{}) {
		s[7] = 1
	}
	return s
}

// Header is the canonical trace-context header name.
const Header = "traceparent"

// Traceparent renders the W3C traceparent header value
// (version 00, sampled flag set): 00-<trace-id>-<parent-id>-01.
func Traceparent(id ID, parent SpanID) string {
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], id[:])
	b[35] = '-'
	hex.Encode(b[36:52], parent[:])
	b[52], b[53], b[54] = '-', '0', '1'
	return string(b[:])
}

// ParseTraceparent parses a W3C traceparent header value. It accepts
// any version except the reserved ff, requires the fixed 00-version
// layout with the flags ending the value or followed by a '-' field
// separator, and rejects all-zero trace and parent IDs, per the spec.
func ParseTraceparent(h string) (ID, SpanID, bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' || (len(h) > 55 && h[55] != '-') {
		return ID{}, SpanID{}, false
	}
	if h[0] == 'f' && h[1] == 'f' {
		return ID{}, SpanID{}, false
	}
	// The spec requires lowercase hex throughout (hex.Decode alone would
	// also admit uppercase).
	if !isHex(h[:2]) || !isHex(h[3:35]) || !isHex(h[36:52]) || !isHex(h[53:55]) {
		return ID{}, SpanID{}, false
	}
	id, ok := ParseID(h[3:35])
	if !ok {
		return ID{}, SpanID{}, false
	}
	var parent SpanID
	if _, err := hex.Decode(parent[:], []byte(h[36:52])); err != nil || parent == (SpanID{}) {
		return ID{}, SpanID{}, false
	}
	return id, parent, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Attr is one small typed span attribute (fingerprint, batch size,
// cache hit/miss, backend address...). Construct with Str, Int or Bool.
type Attr struct {
	Key  string
	str  string
	num  int64
	kind uint8 // 0 string, 1 int, 2 bool
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, str: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, num: v, kind: 1} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr {
	var n int64
	if v {
		n = 1
	}
	return Attr{Key: k, num: n, kind: 2}
}

// value renders the attribute for a Record (JSON-native types).
func (a Attr) value() any {
	switch a.kind {
	case 1:
		return a.num
	case 2:
		return a.num != 0
	default:
		return a.str
	}
}

// maxSpanAttrs bounds the attrs carried per span; extras are dropped.
const maxSpanAttrs = 4

// span is one recorded stage. dur < 0 marks a still-open span (closed
// by End or, as a backstop, by Finish).
type span struct {
	stage  string
	start  time.Time
	dur    time.Duration
	parent int32
	nattrs uint8
	attrs  [maxSpanAttrs]Attr
}

// Trace accumulates one request's spans. All methods are safe on a nil
// receiver (the not-sampled case) and safe for concurrent use, so any
// layer may record from whichever goroutine it runs on.
// Span index 0 is the root (the whole request); Begin/Span return span
// indices usable as parents, with -1 meaning "dropped, parent to root".
type Trace struct {
	tracer *Tracer
	id     ID
	start  time.Time

	mu       sync.Mutex
	spans    []span
	dropped  int32
	finished bool
}

// ID returns the trace identifier (zero for a nil trace).
func (t *Trace) ID() ID {
	if t == nil {
		return ID{}
	}
	return t.id
}

// Now reads the tracer's clock — the timeline every span of this trace
// is recorded on. Zero for a nil trace (or one already finished).
func (t *Trace) Now() time.Time {
	if t == nil || t.tracer == nil {
		return time.Time{}
	}
	return t.tracer.now()
}

// Begin opens a live span under parent (-1 or 0 for the root) and
// returns its index, to be closed with End. Returns -1 (a no-op
// handle) on a nil trace or when the span budget is exhausted.
func (t *Trace) Begin(stage string, parent int) int {
	if t == nil || t.tracer == nil {
		return -1
	}
	start := t.tracer.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(stage, start, -1, parent)
}

// End closes a live span at the clock's current time. No-op for idx<0.
func (t *Trace) End(idx int) {
	if t == nil || idx < 0 || t.tracer == nil {
		return
	}
	now := t.tracer.now()
	t.mu.Lock()
	if !t.finished && idx < len(t.spans) && t.spans[idx].dur < 0 {
		d := now.Sub(t.spans[idx].start)
		if d < 0 {
			d = 0
		}
		t.spans[idx].dur = d
	}
	t.mu.Unlock()
}

// Span records a completed stage from timestamps the caller already
// holds (the scheduler decomposes enqueue/detach/execute windows this
// way). Returns the span index, -1 when dropped.
func (t *Trace) Span(stage string, start time.Time, dur time.Duration, parent int, attrs ...Attr) int {
	if t == nil || t.tracer == nil {
		return -1
	}
	if dur < 0 {
		dur = 0
	}
	t.mu.Lock()
	idx := t.addLocked(stage, start, dur, parent)
	if idx >= 0 {
		t.setAttrsLocked(idx, attrs)
	}
	t.mu.Unlock()
	return idx
}

// SetAttrs attaches attributes to a recorded span (up to 4 per span;
// extras are dropped). No-op for idx<0.
func (t *Trace) SetAttrs(idx int, attrs ...Attr) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	if !t.finished && idx < len(t.spans) {
		t.setAttrsLocked(idx, attrs)
	}
	t.mu.Unlock()
}

// addLocked appends a span, enforcing the budget. Caller holds t.mu.
func (t *Trace) addLocked(stage string, start time.Time, dur time.Duration, parent int) int {
	if t.finished {
		return -1
	}
	if len(t.spans) >= cap(t.spans) {
		t.dropped++
		return -1
	}
	if parent < 0 || parent >= len(t.spans) {
		parent = 0
	}
	t.spans = append(t.spans, span{stage: stage, start: start, dur: dur, parent: int32(parent)})
	return len(t.spans) - 1
}

func (t *Trace) setAttrsLocked(idx int, attrs []Attr) {
	sp := &t.spans[idx]
	for _, a := range attrs {
		if int(sp.nattrs) >= maxSpanAttrs {
			break
		}
		sp.attrs[sp.nattrs] = a
		sp.nattrs++
	}
}

// Record is one finished trace, immutable, as retained by the ring and
// served by /traces.
type Record struct {
	TraceID string `json:"trace_id"`
	// Service names the recording process's tier ("serve", "gateway").
	Service     string `json:"service,omitempty"`
	StartUnixNS int64  `json:"start_unix_ns"`
	DurationNS  int64  `json:"duration_ns"`
	// DroppedSpans counts spans lost to the per-trace budget.
	DroppedSpans int          `json:"dropped_spans,omitempty"`
	Spans        []SpanRecord `json:"spans"`
}

// SpanRecord is one span of a Record. Parent indexes Spans; the root is
// index 0 with Parent -1.
type SpanRecord struct {
	Stage      string         `json:"stage"`
	OffsetNS   int64          `json:"offset_ns"`
	DurationNS int64          `json:"duration_ns"`
	Parent     int            `json:"parent"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// stageIn reports whether any span carries the given stage name.
func (r *Record) stageIn(stage string) bool {
	for i := range r.Spans {
		if r.Spans[i].Stage == stage {
			return true
		}
	}
	return false
}

// Sampling parameters. A request arriving without a traceparent header
// is traced 1 in sampleEvery (requests carrying one are always traced —
// the caller asked). A trace keeps at most maxSpans spans; extras are
// counted in Record.DroppedSpans. A finished trace of at least
// slowThreshold enters the slow-trace reservoir, which holds the slow
// even after the ring has wrapped past them.
const (
	sampleEvery   = 64
	maxSpans      = 64
	slowThreshold = 10 * time.Millisecond
)

// Retention bounds: the ring keeps the ringSize most recent traces, the
// reservoir the reservoirSize slowest.
const (
	ringSize      = 256
	reservoirSize = 32
)

// Options configure a Tracer; the zero value is a production-ready
// default.
type Options struct {
	// Service tags every Record with the recording tier.
	Service string
}

// Tracer mints, recycles and retains traces for one process tier.
// Safe for concurrent use.
type Tracer struct {
	service string
	now     func() time.Time // time.Now outside tests

	seq  atomic.Uint64 // unsolicited-sampling counter
	pool sync.Pool     // *Trace

	// ring holds the most recent finished traces, lock-free: writers
	// claim a slot with one atomic add and publish with one atomic
	// pointer store.
	ring    []atomic.Pointer[Record]
	ringPos atomic.Uint64

	// reservoir keeps the cap(reservoir) slowest traces over
	// slowThreshold (min-heap by duration), mutex-guarded — admission
	// is rare by construction.
	resMu     sync.Mutex
	reservoir []*Record

	started  atomic.Int64
	finished atomic.Int64
}

// New builds a Tracer. A nil *Tracer is a valid one that records
// nothing: Start returns nil and the request path pays nothing.
func New(opts Options) *Tracer { return newTracer(opts, time.Now, ringSize, reservoirSize) }

// newTracer is New with the time source and the retention bounds as
// parameters, so tests can make span windows exact, wrap the ring and
// fill the reservoir with a handful of traces.
func newTracer(opts Options, now func() time.Time, ring, reservoir int) *Tracer {
	t := &Tracer{
		service:   opts.Service,
		now:       now,
		ring:      make([]atomic.Pointer[Record], ring),
		reservoir: make([]*Record, 0, reservoir),
	}
	t.pool.New = func() any {
		return &Trace{spans: make([]span, 0, maxSpans)}
	}
	return t
}

// Enabled reports whether the tracer records at all.
func (t *Tracer) Enabled() bool { return t != nil }

// Sample decides whether to trace a request that arrived without a
// traceparent header: 1 in sampleEvery, deterministic from a counter
// (the first request is always sampled, so a fresh server has
// exemplars immediately).
func (t *Tracer) Sample() bool {
	return t != nil && (t.seq.Add(1)-1)%sampleEvery == 0
}

// Start opens a trace whose root span is named root. A zero id mints a
// fresh one; a zero start reads the clock. Returns nil (and records
// nothing, at zero cost downstream) on a nil tracer.
func (t *Tracer) Start(id ID, root string, start time.Time) *Trace {
	if !t.Enabled() {
		return nil
	}
	if id.IsZero() {
		id = NewID()
	}
	if start.IsZero() {
		start = t.now()
	}
	tr := t.pool.Get().(*Trace)
	tr.tracer = t
	tr.id = id
	tr.start = start
	tr.dropped = 0
	tr.finished = false
	tr.spans = tr.spans[:0]
	tr.spans = append(tr.spans, span{stage: root, start: start, dur: -1, parent: -1})
	t.started.Add(1)
	return tr
}

// Finish seals the trace: open spans (the root included) close at the
// current clock reading, the immutable Record is built, retained in the
// ring (and the slow reservoir when it qualifies), and the Trace
// returns to the pool. Returns the Record (nil for a nil trace).
// The trace must not be used after Finish.
func (t *Tracer) Finish(tr *Trace) *Record {
	if t == nil || tr == nil {
		return nil
	}
	now := t.now()
	tr.mu.Lock()
	tr.finished = true
	rec := &Record{
		TraceID:      tr.id.String(),
		Service:      t.service,
		StartUnixNS:  tr.start.UnixNano(),
		DroppedSpans: int(tr.dropped),
		Spans:        make([]SpanRecord, len(tr.spans)),
	}
	for i := range tr.spans {
		sp := &tr.spans[i]
		d := sp.dur
		if d < 0 {
			if d = now.Sub(sp.start); d < 0 {
				d = 0
			}
		}
		sr := SpanRecord{
			Stage:      sp.stage,
			OffsetNS:   int64(sp.start.Sub(tr.start)),
			DurationNS: int64(d),
			Parent:     int(sp.parent),
		}
		if i == 0 {
			sr.Parent = -1
		}
		if sp.nattrs > 0 {
			sr.Attrs = make(map[string]any, sp.nattrs)
			for _, a := range sp.attrs[:sp.nattrs] {
				sr.Attrs[a.Key] = a.value()
			}
		}
		rec.Spans[i] = sr
	}
	tr.spans = tr.spans[:0]
	tr.mu.Unlock()
	rec.DurationNS = rec.Spans[0].DurationNS
	t.keep(rec)
	t.finished.Add(1)
	tr.tracer = nil
	t.pool.Put(tr)
	return rec
}

// keep retains a finished record: always in the ring, and in the
// slow-trace reservoir when it clears the threshold.
func (t *Tracer) keep(rec *Record) {
	slot := (t.ringPos.Add(1) - 1) % uint64(len(t.ring))
	t.ring[slot].Store(rec)
	if rec.DurationNS < int64(slowThreshold) {
		return
	}
	t.resMu.Lock()
	if len(t.reservoir) < cap(t.reservoir) {
		t.reservoir = append(t.reservoir, rec)
		t.siftUp(len(t.reservoir) - 1)
	} else if len(t.reservoir) > 0 && rec.DurationNS > t.reservoir[0].DurationNS {
		t.reservoir[0] = rec
		t.siftDown(0)
	}
	t.resMu.Unlock()
}

// siftUp/siftDown maintain the reservoir min-heap (slowest survive:
// the fastest resident is at the root and is the one displaced).
// Caller holds t.resMu.
func (t *Tracer) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if t.reservoir[p].DurationNS <= t.reservoir[i].DurationNS {
			return
		}
		t.reservoir[p], t.reservoir[i] = t.reservoir[i], t.reservoir[p]
		i = p
	}
}

func (t *Tracer) siftDown(i int) {
	n := len(t.reservoir)
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < n && t.reservoir[l].DurationNS < t.reservoir[min].DurationNS {
			min = l
		}
		if r < n && t.reservoir[r].DurationNS < t.reservoir[min].DurationNS {
			min = r
		}
		if min == i {
			return
		}
		t.reservoir[i], t.reservoir[min] = t.reservoir[min], t.reservoir[i]
		i = min
	}
}

// Traces returns retained traces (ring ∪ reservoir, deduplicated)
// whose duration is ≥ min and — when stage is non-empty — that carry a
// span with that stage name, slowest first.
func (t *Tracer) Traces(min time.Duration, stage string) []*Record {
	if t == nil {
		return nil
	}
	seen := make(map[*Record]struct{}, len(t.ring))
	var out []*Record
	add := func(r *Record) {
		if r == nil || r.DurationNS < int64(min) {
			return
		}
		if _, dup := seen[r]; dup {
			return
		}
		if stage != "" && !r.stageIn(stage) {
			return
		}
		seen[r] = struct{}{}
		out = append(out, r)
	}
	for i := range t.ring {
		add(t.ring[i].Load())
	}
	t.resMu.Lock()
	for _, r := range t.reservoir {
		add(r)
	}
	t.resMu.Unlock()
	// Slowest first: the reader is debugging a tail.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].DurationNS > out[j-1].DurationNS; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
