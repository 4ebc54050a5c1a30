package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dpuv2/internal/artifact"
	"dpuv2/internal/dag"
	"dpuv2/internal/engine"
	"dpuv2/internal/pc"
	"dpuv2/internal/suite"
)

// batchBody renders a serve_batch-shaped body: a random circuit and
// vectors of full-precision floats, marshalled as clients send them.
func batchBody(tb testing.TB, vectors int) []byte {
	tb.Helper()
	g := dag.RandomGraph(dag.RandomConfig{Inputs: 8, Interior: 40, MaxArgs: 3, MulFrac: 0.3, Seed: 1})
	var sb strings.Builder
	if err := dag.Write(&sb, g); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	req := ExecuteRequest{Graph: sb.String(), Inputs: make([][]float64, vectors)}
	for i := range req.Inputs {
		req.Inputs[i] = make([]float64, len(g.Inputs()))
		for j := range req.Inputs[i] {
			req.Inputs[i][j] = rng.Float64()
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// decodeSeeds are bodies on the edges of the contract with
// json.Unmarshal: escapes, key folding, repeated keys, nulls, the number
// grammar and the bytes after the object.
var decodeSeeds = []string{
	`{"graph":"input\ninput\nadd 0 1\n","inputs":[[2,5]]}`,
	`{"graph":"input\u000ainput\nadd 0 1\n\/\/ é 😀 \ud800 \udc00 \ud800A \\ \"","inputs":[[1,2]]}`,
	"{\"graph\":\"input\n\"}",
	"{\"graph\":\"input\xff\xfe\\n\xed\xa0\x80 \xef\xbf\xbd\",\"inputs\":[[1]]}",
	"{\"gr\xffaph\":\"x\"}",
	`{"GRAPH":"input\n","Inputs":[[1]],"cOnFiG":{"d":1}}`,
	`{"graph":"input\n","inputſ":[[3]],"graph":"input\ninput\n"}`,
	`{"inputs":[[1,2,3],[4],[5,6]],"inputs":[[9],[null,null],[7]],"inputs":[[null,null,null,null],null,[null,null]]}`,
	`{"inputs":[[1,2]],"inputs":[],"inputs":[[null,null]]}`,
	`{"inputs":[[1,2]],"inputs":[[]],"inputs":[[null]]}`,
	`{"inputs":[[1,2]],"inputs":null,"inputs":[[null]]}`,
	`{"inputs":[],"inputs":[[1]]}`,
	`{"inputs":[[]]}`,
	`{"inputs":[[null,1]]}`,
	`{"inputs":[null,[1]]}`,
	`{"config":{"D":1,"B":2},"config":{"R":8},"config":null,"options":{"Seed":3},"options":{"Window":4}}`,
	`{"config":{"D":"x"}}`,
	`{"options":{"Seed":1.5}}`,
	`{"config":5}`,
	`{"graph":5}`,
	`{"graph":null}`,
	`{"graph":"a","graph":null}`,
	`{"inputs":{}}`,
	`{"inputs":[1]}`,
	`{"inputs":[["1"]]}`,
	`{"inputs":[[true]]}`,
	`{"inputs":[[[1]]]}`,
	`{"inputs":[[1e400]]}`,
	`{"inputs":[[-1e400]]}`,
	`{"inputs":[[1e-400]]}`,
	`{"inputs":[[-0]]}`,
	`{"inputs":[[-0.0e+0, 1E2, 2.5e-3, 123456789012345678901234567890]]}`,
	`{"inputs":[[01]]}`,
	`{"inputs":[[1.]]}`,
	`{"inputs":[[.5]]}`,
	`{"inputs":[[+1]]}`,
	`{"inputs":[[NaN]]}`,
	`{"inputs":[[-]]}`,
	`{"inputs":[[1e]]}`,
	`{"inputs":[[1,]]}`,
	`{"x":1e400,"y":[{"z":[true,false,null,"A"]}],"inputs":[[1]]}`,
	`{"x":tru}`,
	`{"x":"\q"}`,
	`{"x":"\u12"}`,
	"{\"x\":\"a\tb\"}",
	`{"graph":"input\n","inputs":[[1]]}x`,
	`{"graph":"input\n","inputs":[[1]]}{}`,
	" \t\r\n{\"inputs\" : [ [ 1 , 2 ] ] } \n",
	`{"a":1,}`,
	`{,}`,
	`{"a" 1}`,
	`{"a":1 "b":2}`,
	`null`,
	` null `,
	`nul`,
	`[]`,
	`"x"`,
	`1`,
	``,
	`{}`,
	`{`,
	`{"graph":"input`,
}

// checkDecode fails tb unless DecodeExecuteRequest agrees with
// json.Unmarshal into ExecuteRequest on body: both accept or both
// reject, and an accepted body decodes to the same request, floats
// bit for bit and nil rows apart from empty ones.
func checkDecode(tb testing.TB, body []byte) {
	tb.Helper()
	var want ExecuteRequest
	wantErr := json.Unmarshal(body, &want)
	got, err := DecodeExecuteRequest(body)
	if (err == nil) != (wantErr == nil) {
		tb.Fatalf("%q: encoding/json says %v, DecodeExecuteRequest says %v", body, wantErr, err)
	}
	if err != nil {
		return
	}
	if got.Graph != want.Graph || got.Config != want.Config || got.Options != want.Options {
		tb.Fatalf("%q: decoded %+v, encoding/json %+v", body, got, want)
	}
	if !sameRows(got.Inputs, want.Inputs) {
		tb.Fatalf("%q: inputs %#v, encoding/json %#v", body, got.Inputs, want.Inputs)
	}
}

func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) || (a[i] == nil) != (b[i] == nil) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// FuzzExecuteRequest is the differential test of the /execute body
// decoder against encoding/json, plus the handler's contract on the
// same bytes: whatever arrives, it never panics and never answers 5xx.
func FuzzExecuteRequest(f *testing.F) {
	f.Add(batchBody(f, 16))
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	s := New(engine.New(engine.Options{}), Options{})
	f.Cleanup(s.Drain)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/execute", bytes.NewReader(body)))
		if rr.Code >= 500 {
			t.Fatalf("%q: HTTP %d: %s", body, rr.Code, rr.Body.Bytes())
		}
	})
}

// TestDecodeNestingLimit: a body nested exactly as deep as encoding/json
// allows decodes, one level deeper is rejected, and neither recurses
// past the limit.
func TestDecodeNestingLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth, 100 * maxDepth} {
		body := `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
		checkDecode(t, []byte(body))
	}
}

// TestDecodeAllocationsPerBody: the decoder allocates per body, not per
// row or per number.
func TestDecodeAllocationsPerBody(t *testing.T) {
	allocs := func(vectors int) float64 {
		body := batchBody(t, vectors)
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodeExecuteRequest(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(1), allocs(256)
	// The rows slice grows by doubling: log2(256) more allocations.
	if many > one+10 {
		t.Errorf("%v allocations for 256 vectors, %v for one", many, one)
	}
	// Rows are views of one flat slice, clipped so none grows into the next.
	req, err := DecodeExecuteRequest(batchBody(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range req.Inputs {
		if cap(row) != len(row) {
			t.Errorf("row %d: len %d, cap %d", i, len(row), cap(row))
		}
	}
}

// TestHandlerAllocationsPerRequest: a serve_batch-shaped /execute
// (tretail at scale 0.25, 2,399 nodes, 256 vectors, a compile-cache hit)
// allocates a bounded number of times in all: nothing per graph line
// or per vector. The answer declares its Content-Length.
func TestHandlerAllocationsPerRequest(t *testing.T) {
	g, err := suite.Build("tretail", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := dag.Write(&sb, g); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	req := ExecuteRequest{Graph: sb.String(), Inputs: make([][]float64, 256)}
	for i := range req.Inputs {
		req.Inputs[i] = make([]float64, len(g.Inputs()))
		for j := range req.Inputs[i] {
			req.Inputs[i][j] = rng.NormFloat64()
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Options{})
	h := s.Handler()
	const handlerAllocCeiling = 150
	allocs := testing.AllocsPerRun(10, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/execute", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("Content-Length %q for a %d-byte answer", cl, rec.Body.Len())
		}
	})
	// Measured 103–107, and 109–120 under -race (2 vCPU, go1.24; 7,864
	// when Read allocated per line). The slack absorbs runtime and
	// scheduling differences, far below one allocation per graph line.
	if allocs > handlerAllocCeiling {
		t.Errorf("%v allocations per request, ceiling %d", allocs, handlerAllocCeiling)
	}
	t.Logf("%v allocations per request", allocs)
}

// TestHandlerAllocationsPerStoreMiss bounds the allocations of a
// serve_churn-shaped /execute, BenchmarkHandler/churn's request: a
// 480-node circuit evicted from an 8-entry cache, so the engine misses
// and the artifact store answers with a serving decode of a payload it
// verified before. Request and recorder are counted.
func TestHandlerAllocationsPerStoreMiss(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{CacheSize: 8, Store: st})
	s := New(eng, Options{})
	t.Cleanup(s.Drain)
	h := s.Handler()
	bodies := handlerBodies(t, circuits(32, 480, 1000), 1)
	i := 0
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/execute", bytes.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		i++
	}
	for range 2 * len(bodies) { // compile and persist, then verify every payload once
		serve()
		eng.Flush()
	}
	before := eng.Stats()
	allocs := testing.AllocsPerRun(len(bodies), serve)
	after := eng.Stats()
	if after.Hits != before.Hits || after.StoreHits == before.StoreHits || after.Verified != before.Verified {
		t.Fatalf("engine hits %d → %d, store hits %d → %d, verified %d → %d: want store-decoded misses of verified payloads",
			before.Hits, after.Hits, before.StoreHits, after.StoreHits, before.Verified, after.Verified)
	}
	// Measured 93, and 99 under -race (go1.24, 2 vCPU); 905 when every
	// store decode unpacked, revalidated and repacked the instruction
	// stream and built the graph node by node (906 allocs/op in
	// BenchmarkHandler/churn). The slack of about 30 absorbs runtime
	// differences and stays far below one allocation per instruction.
	ceiling := 125.0
	if raceEnabled {
		ceiling = 130
	}
	if allocs > ceiling {
		t.Errorf("%v allocations per store-answered miss, ceiling %v", allocs, ceiling)
	}
	t.Logf("%v allocations per store-answered miss", allocs)
}

// TestHandlerBytesPerHit bounds the bytes a serve_hot-shaped /execute
// — a 64-node circuit, one vector, a compile-cache hit — allocates end
// to end in process, request and recorder included: the parse memo
// answers the text's fingerprint and the engine answers by key, so the
// text is not parsed again and no graph is built.
func TestHandlerBytesPerHit(t *testing.T) {
	g := pc.Generate(pc.Config{Vars: 8, TargetNodes: 64, TargetDepth: 12, SumFanin: 3, Weighted: true, SkipProb: 0.15, Seed: 100})
	var sb strings.Builder
	if err := dag.Write(&sb, g); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ExecuteRequest{Graph: sb.String(), Inputs: [][]float64{pc.UniformInputs(g, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Options{})
	h := s.Handler()
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/execute", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve() // the miss compiles
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		serve()
	}
	runtime.ReadMemStats(&after)
	if st := s.eng.Stats(); st.Misses != 1 || st.Hits != runs {
		t.Fatalf("misses %d, hits %d; want 1 and %d", st.Misses, st.Hits, runs)
	}
	if n := s.Stats().HTTP.ParseMemoHits; n != runs {
		t.Fatalf("parse memo hits %d, want %d", n, runs)
	}
	perHit := (after.TotalAlloc - before.TotalAlloc) / runs
	// Measured 11,554–11,731 bytes, and 14,674–14,803 under -race
	// (2 vCPU, go1.24), about 4 kB of them the test's own request and
	// recorder; 13,895–13,925 when every request parsed its graph text,
	// and 1.07 MB when every request built its graph through a 1 MiB
	// scanner buffer. The slack (about 1.5 kB) absorbs runtime
	// differences and stays below a parse per hit.
	ceiling := uint64(13 << 10)
	if raceEnabled {
		ceiling = 16 << 10
	}
	if perHit > ceiling {
		t.Errorf("%d bytes allocated per hit, ceiling %d", perHit, ceiling)
	}
	t.Logf("%d bytes allocated per hit on a %d-byte body", perHit, len(body))
}

// TestReadBodyBoundsContentLength: a client declaring MaxRequestBytes
// and sending ten bytes gets a 400 without the server allocating for
// what it declared, and one declaring more than MaxRequestBytes is
// answered 400 while the rest of its body is still to come.
func TestReadBodyBoundsContentLength(t *testing.T) {
	_, srv := newTestServer(t, Options{})
	// post sends the headers and ten body bytes, then, if hangUp, ends
	// its side of the connection.
	post := func(contentLength int64, hangUp bool) (status int, allocated uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST /execute HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n{\"graph\":\"", contentLength)
		if hangUp {
			conn.(*net.TCPConn).CloseWrite()
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		return resp.StatusCode, after.TotalAlloc - before.TotalAlloc
	}
	if status, allocated := post(MaxRequestBytes, true); status != http.StatusBadRequest || allocated >= 1<<20 {
		t.Errorf("10 of %d declared bytes: HTTP %d, %d bytes allocated; want 400 and < 1 MiB", MaxRequestBytes, status, allocated)
	}
	if status, _ := post(MaxRequestBytes+1, false); status != http.StatusBadRequest {
		t.Errorf("%d declared bytes: HTTP %d, want 400", MaxRequestBytes+1, status)
	}
}

// BenchmarkDecodeExecuteRequest compares the decoder with encoding/json
// on a serve_batch-shaped body of 256 vectors.
func BenchmarkDecodeExecuteRequest(b *testing.B) {
	body := batchBody(b, 256)
	b.Run("decoder", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := DecodeExecuteRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var req ExecuteRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
