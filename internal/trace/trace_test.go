package trace

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// manualClock is a trivial settable time source for newTracer: time
// moves only on advance, so span windows are exact.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := NewID()
	parent := NewSpanID()
	h := Traceparent(id, parent)
	if len(h) != 55 {
		t.Fatalf("traceparent length %d, want 55: %q", len(h), h)
	}
	gotID, gotParent, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent rejected our own rendering %q", h)
	}
	if gotID != id || gotParent != parent {
		t.Fatalf("round trip: got (%s, %s), want (%s, %s)", gotID, gotParent, id, parent)
	}
}

func TestTraceparentRejects(t *testing.T) {
	valid := Traceparent(NewID(), NewSpanID())
	bad := []string{
		"",
		"00",
		strings.Replace(valid, "-", "_", 1),
		"ff" + valid[2:], // reserved version
		valid[:3] + strings.Repeat("0", 32) + valid[35:],  // zero trace ID
		valid[:36] + strings.Repeat("0", 16) + valid[52:], // zero parent
		strings.ToUpper(valid),                            // hex must be lowercase
		valid[:54],                                        // truncated
		valid + "x",                                       // junk glued to the flags
		"01" + valid[2:] + "x",                            // likewise under a future version
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent accepted %q", h)
		}
	}
	// Longer-than-55 is fine per spec (future versions append fields).
	if _, _, ok := ParseTraceparent(valid + "-extra"); !ok {
		t.Errorf("ParseTraceparent rejected a valid header with trailing fields")
	}
}

func TestIDsNonZeroAndDistinct(t *testing.T) {
	seen := map[ID]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID()
		if id.IsZero() {
			t.Fatal("NewID returned the zero ID")
		}
		if seen[id] {
			t.Fatalf("duplicate ID %s", id)
		}
		seen[id] = true
	}
}

func TestSpanRecording(t *testing.T) {
	clk := newManualClock()
	tr8 := newTracer(Options{Service: "test"}, clk.Now, ringSize, reservoirSize)
	tr := tr8.Start(ID{}, "request", clk.Now())
	if tr == nil {
		t.Fatal("Start returned nil on an enabled tracer")
	}
	sp := tr.Begin("compile", 0)
	clk.advance(5 * time.Millisecond)
	tr.SetAttrs(sp, Str("fingerprint", "abc"), Int("nodes", 7), Bool("hit", true))
	tr.End(sp)
	clk.advance(2 * time.Millisecond)
	rec := tr8.Finish(tr)
	if rec == nil {
		t.Fatal("Finish returned nil")
	}
	if rec.Service != "test" {
		t.Fatalf("service %q", rec.Service)
	}
	if len(rec.Spans) != 2 {
		t.Fatalf("got %d spans, want 2 (root + compile)", len(rec.Spans))
	}
	root, compile := rec.Spans[0], rec.Spans[1]
	if root.Stage != "request" || root.Parent != -1 {
		t.Fatalf("root span %+v", root)
	}
	if rec.DurationNS != int64(7*time.Millisecond) || root.DurationNS != rec.DurationNS {
		t.Fatalf("root duration %d, want 7ms", rec.DurationNS)
	}
	if compile.Stage != "compile" || compile.DurationNS != int64(5*time.Millisecond) || compile.Parent != 0 {
		t.Fatalf("compile span %+v", compile)
	}
	if compile.Attrs["fingerprint"] != "abc" || compile.Attrs["nodes"] != int64(7) || compile.Attrs["hit"] != true {
		t.Fatalf("compile attrs %+v", compile.Attrs)
	}
}

func TestFinishClosesOpenSpans(t *testing.T) {
	clk := newManualClock()
	tr8 := newTracer(Options{}, clk.Now, ringSize, reservoirSize)
	tr := tr8.Start(ID{}, "request", clk.Now())
	sp := tr.Begin("hedge", 0) // never Ended: a canceled loser attempt
	clk.advance(3 * time.Millisecond)
	rec := tr8.Finish(tr)
	if got := rec.Spans[sp].DurationNS; got != int64(3*time.Millisecond) {
		t.Fatalf("open span closed at %d, want 3ms", got)
	}
}

func TestMaxSpansBudget(t *testing.T) {
	clk := newManualClock()
	tr8 := newTracer(Options{}, clk.Now, ringSize, reservoirSize)
	tr := tr8.Start(ID{}, "request", clk.Now())
	for i := 0; i < 70; i++ {
		tr.Span(fmt.Sprintf("s%d", i), clk.Now(), time.Millisecond, 0)
	}
	rec := tr8.Finish(tr)
	if len(rec.Spans) != 64 {
		t.Fatalf("got %d spans, want the 64-span budget", len(rec.Spans))
	}
	if rec.DroppedSpans != 7 { // 70 attempted + root = 71, 64 kept
		t.Fatalf("dropped %d, want 7", rec.DroppedSpans)
	}
}

func TestRingEviction(t *testing.T) {
	clk := newManualClock()
	tr8 := newTracer(Options{}, clk.Now, 4, reservoirSize) // zero-length traces: none slow
	var ids []string
	for i := 0; i < 10; i++ {
		tr := tr8.Start(ID{}, "r", clk.Now())
		ids = append(ids, tr.ID().String())
		tr8.Finish(tr)
	}
	got := map[string]bool{}
	for _, r := range tr8.Traces(0, "") {
		got[r.TraceID] = true
	}
	if len(got) != 4 {
		t.Fatalf("ring retained %d traces, want 4", len(got))
	}
	for _, id := range ids[6:] {
		if !got[id] {
			t.Fatalf("ring lost recent trace %s", id)
		}
	}
}

func TestReservoirKeepsSlowest(t *testing.T) {
	clk := newManualClock()
	// Ring of 1 so only the reservoir retains history.
	tr8 := newTracer(Options{}, clk.Now, 1, 3)
	durs := []time.Duration{
		5 * time.Millisecond, // under the 10ms threshold: never admitted
		20 * time.Millisecond,
		50 * time.Millisecond,
		15 * time.Millisecond,
		40 * time.Millisecond, // displaces 15ms
		30 * time.Millisecond, // displaces 20ms
		12 * time.Millisecond, // too fast to displace anything
	}
	for _, d := range durs {
		tr := tr8.Start(ID{}, "r", clk.Now())
		clk.advance(d)
		tr8.Finish(tr)
	}
	recs := tr8.Traces(10*time.Millisecond, "")
	// The ring's single slot holds the last finish (12ms ≥ min, counts);
	// the reservoir must hold exactly {50, 40, 30}ms.
	want := map[int64]bool{
		int64(50 * time.Millisecond): false,
		int64(40 * time.Millisecond): false,
		int64(30 * time.Millisecond): false,
	}
	for _, r := range recs {
		if _, ok := want[r.DurationNS]; ok {
			want[r.DurationNS] = true
		}
	}
	for d, found := range want {
		if !found {
			t.Fatalf("reservoir lost a %v trace (got %d records)", time.Duration(d), len(recs))
		}
	}
	// Slowest first.
	for i := 1; i < len(recs); i++ {
		if recs[i].DurationNS > recs[i-1].DurationNS {
			t.Fatalf("Traces not sorted slowest-first at %d", i)
		}
	}

	// A tie with the fastest resident does not displace it: the earlier
	// 30ms record stays, and the later one leaves with the ring's slot.
	var kept ID
	for _, r := range recs {
		if r.DurationNS == int64(30*time.Millisecond) {
			kept, _ = ParseID(r.TraceID)
		}
	}
	tie := tr8.Start(ID{}, "r", clk.Now())
	clk.advance(30 * time.Millisecond)
	tr8.Finish(tie)
	tr8.Finish(tr8.Start(ID{}, "r", clk.Now())) // a 0ms finish takes the ring's slot
	recs = tr8.Traces(10*time.Millisecond, "")
	if len(recs) != 3 || recs[2].TraceID != kept.String() {
		t.Fatalf("after a 30ms tie the reservoir holds %+v, want the earlier 30ms trace %s last", recs, kept)
	}
}

// TestTracesStableOnTies: records of equal duration come back in the
// order they were retained, ring slots first, then the reservoir's
// admission order — the same order on every call.
func TestTracesStableOnTies(t *testing.T) {
	clk := newManualClock()
	tr8 := newTracer(Options{}, clk.Now, 1, 3)
	var want []string
	for range 3 {
		tr := tr8.Start(ID{}, "r", clk.Now())
		clk.advance(20 * time.Millisecond)
		want = append(want, tr8.Finish(tr).TraceID)
	}
	want = append(want, tr8.Finish(tr8.Start(ID{}, "r", clk.Now())).TraceID)
	for call := range 2 {
		var got []string
		for _, r := range tr8.Traces(0, "") {
			got = append(got, r.TraceID)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("call %d: Traces order %v, want %v", call, got, want)
		}
	}
}

// TestStartRequest pins the tracing rule both tiers share: a valid
// traceparent is always traced under its trace ID, a malformed one is
// ignored, and a request without a usable one is sampled 1 in 64.
func TestStartRequest(t *testing.T) {
	tr8 := New(Options{})
	h := http.Header{}
	if tr := tr8.StartRequest(h, "r", time.Time{}); tr == nil {
		t.Fatal("the first bare request was not sampled")
	} else {
		tr8.Finish(tr)
	}
	id := NewID()
	h.Set(Header, Traceparent(id, NewSpanID()))
	for i := range 3 {
		tr := tr8.StartRequest(h, "r", time.Time{})
		if tr.ID() != id {
			t.Fatalf("request %d with a traceparent traced as %v, want %v", i, tr.ID(), id)
		}
		tr8.Finish(tr)
	}
	h.Set(Header, "00-NOTHEX-beef-01")
	traced := 0
	for range 2 * sampleEvery {
		if tr := tr8.StartRequest(h, "r", time.Time{}); tr != nil {
			if tr.ID() == id {
				t.Fatal("a malformed traceparent kept the last valid trace ID")
			}
			traced++
			tr8.Finish(tr)
		}
	}
	if traced != 2 {
		t.Fatalf("traced %d of %d requests with a malformed traceparent, want 2 (1 in %d)", traced, 2*sampleEvery, sampleEvery)
	}
	var off *Tracer
	h.Set(Header, Traceparent(id, NewSpanID()))
	if allocs := testing.AllocsPerRun(100, func() {
		if off.StartRequest(h, "r", time.Time{}) != nil {
			t.Fatal("nil tracer started a trace")
		}
	}); allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f per request, want 0", allocs)
	}
}

// TestSlowThreshold pins the reservoir's admission bound at 10ms: with
// a one-slot ring, a trace of 10ms outlives the ring and one of a
// nanosecond less does not.
func TestSlowThreshold(t *testing.T) {
	clk := newManualClock()
	tr8 := newTracer(Options{}, clk.Now, 1, reservoirSize)
	for _, d := range []time.Duration{10*time.Millisecond - 1, 10 * time.Millisecond, 0} {
		tr := tr8.Start(ID{}, "r", clk.Now())
		clk.advance(d)
		tr8.Finish(tr)
	}
	recs := tr8.Traces(0, "")
	if len(recs) != 2 || recs[0].DurationNS != int64(10*time.Millisecond) || recs[1].DurationNS != 0 {
		t.Fatalf("retained %+v, want the 10ms trace (reservoir) and the last one (ring)", recs)
	}
}

func TestTracesFilters(t *testing.T) {
	clk := newManualClock()
	tr8 := newTracer(Options{}, clk.Now, ringSize, reservoirSize)
	fast := tr8.Start(ID{}, "r", clk.Now())
	fast.Span("decode", clk.Now(), time.Millisecond, 0)
	clk.advance(time.Millisecond)
	tr8.Finish(fast)
	slow := tr8.Start(ID{}, "r", clk.Now())
	slow.Span("execute", clk.Now(), 20*time.Millisecond, 0)
	clk.advance(25 * time.Millisecond)
	tr8.Finish(slow)

	if got := tr8.Traces(10*time.Millisecond, ""); len(got) != 1 || got[0].DurationNS != int64(25*time.Millisecond) {
		t.Fatalf("min filter: %+v", got)
	}
	if got := tr8.Traces(0, "decode"); len(got) != 1 || got[0].DurationNS != int64(time.Millisecond) {
		t.Fatalf("stage filter: %+v", got)
	}
	if got := tr8.Traces(0, "nonexistent"); len(got) != 0 {
		t.Fatalf("bogus stage matched %d traces", len(got))
	}
}

func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr8 *Tracer
	clk := newManualClock()
	allocs := testing.AllocsPerRun(100, func() {
		if tr8.Sample() {
			t.Fatal("nil tracer sampled")
		}
		tr := tr8.Start(NewID(), "r", clk.Now())
		if tr != nil {
			t.Fatal("nil tracer started a trace")
		}
		sp := tr.Begin("s", 0)
		tr.SetAttrs(sp, Int("k", 1))
		tr.End(sp)
		tr.Span("t", clk.Now(), time.Millisecond, 0)
		tr8.Finish(tr)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f per request, want 0", allocs)
	}
}

func TestSampledTraceAmortizedAllocFree(t *testing.T) {
	clk := newManualClock()
	tr8 := newTracer(Options{}, clk.Now, ringSize, reservoirSize)
	// Warm the pool and the ring (Record allocation in Finish is off the
	// recording path; this test pins the RECORDING side: Start from pool,
	// Begin/Span/SetAttrs into preallocated storage).
	tr := tr8.Start(ID{}, "r", clk.Now())
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Begin("s", 0)
		tr.SetAttrs(sp, Int("k", 1), Str("s", "v"))
		tr.End(sp)
		tr.mu.Lock()
		tr.spans = tr.spans[:1] // rewind to keep the budget from saturating
		tr.mu.Unlock()
	})
	tr8.Finish(tr)
	if allocs != 0 {
		t.Fatalf("span recording allocated %.1f per span, want 0", allocs)
	}
}

func TestSampleEvery(t *testing.T) {
	tr8 := New(Options{})
	if !tr8.Sample() {
		t.Fatal("first request must be sampled")
	}
	hits := 1
	for i := 1; i < 4*64; i++ {
		if tr8.Sample() {
			hits++
		}
	}
	if hits != 4 {
		t.Fatalf("sampled %d of 256 at 1-in-64", hits)
	}
}

func TestConcurrentSpanWrites(t *testing.T) {
	clk := newManualClock()
	tr8 := newTracer(Options{}, clk.Now, ringSize, reservoirSize)
	tr := tr8.Start(ID{}, "r", clk.Now())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.Begin("worker", 0)
				tr.SetAttrs(sp, Int("w", int64(w)))
				tr.End(sp)
			}
		}(w)
	}
	wg.Wait()
	rec := tr8.Finish(tr)
	// 400 worker spans and the root against the 64-span budget: every
	// span is either kept or counted as dropped.
	if want := 1 + 8*50; len(rec.Spans) != 64 || len(rec.Spans)+rec.DroppedSpans != want {
		t.Fatalf("spans %d + dropped %d, want 64 + %d", len(rec.Spans), rec.DroppedSpans, want-64)
	}
}

func TestUseAfterFinishIsDropped(t *testing.T) {
	clk := newManualClock()
	tr8 := newTracer(Options{}, clk.Now, ringSize, reservoirSize)
	tr := tr8.Start(ID{}, "r", clk.Now())
	sp := tr.Begin("s", 0)
	rec := tr8.Finish(tr)
	// The trace is back in the pool; late writes must be silently
	// dropped, never corrupt the published Record.
	tr.End(sp)
	tr.Span("late", clk.Now(), time.Second, 0)
	if len(rec.Spans) != 2 {
		t.Fatalf("record mutated after Finish: %d spans", len(rec.Spans))
	}
}

func TestTracesHandler(t *testing.T) {
	clk := newManualClock()
	tr8 := newTracer(Options{}, clk.Now, ringSize, reservoirSize)
	for i, d := range []time.Duration{time.Millisecond, 30 * time.Millisecond} {
		tr := tr8.Start(ID{}, "request", clk.Now())
		tr.Span("decode", clk.Now(), time.Duration(i+1)*time.Millisecond, 0)
		clk.advance(d)
		tr8.Finish(tr)
	}
	h := tr8.Handler()

	get := func(url string) TracesResponse {
		t.Helper()
		rr := httptest.NewRecorder()
		h(rr, httptest.NewRequest("GET", url, nil))
		if rr.Code != 200 {
			t.Fatalf("GET %s: %d %s", url, rr.Code, rr.Body)
		}
		var resp TracesResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		return resp
	}

	if resp := get("/traces"); resp.Count != 2 {
		t.Fatalf("unfiltered count %d", resp.Count)
	}
	if resp := get("/traces?min=10ms"); resp.Count != 1 || resp.Traces[0].DurationNS != int64(30*time.Millisecond) {
		t.Fatalf("min filter: %+v", resp)
	}
	if resp := get("/traces?min=" + fmt.Sprint(int64(10*time.Millisecond))); resp.Count != 1 {
		t.Fatalf("raw-ns min filter failed")
	}
	if resp := get("/traces?stage=decode&limit=1"); resp.Count != 1 {
		t.Fatalf("stage+limit: %+v", resp)
	}
	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest("GET", "/traces?min=bogus", nil))
	if rr.Code != 400 {
		t.Fatalf("bad min answered %d", rr.Code)
	}
	rr = httptest.NewRecorder()
	h(rr, httptest.NewRequest("POST", "/traces", nil))
	if rr.Code != 405 {
		t.Fatalf("POST answered %d", rr.Code)
	}
	// Empty result must be [], not null.
	rr = httptest.NewRecorder()
	h(rr, httptest.NewRequest("GET", "/traces?min=1h", nil))
	if !strings.Contains(rr.Body.String(), `"traces":[]`) {
		t.Fatalf("empty result not []: %s", rr.Body)
	}
}
