package main

// The HTTP handler, its batching scheduler and the full request-path
// test matrix live in internal/serve (so cmd/dpu-loadgen can drive the
// server in-process); this file only smoke-tests the wiring the binary
// performs: the zero serve.Options main builds produce a server that
// executes a request end to end through the batched path.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"dpuv2/internal/engine"
	"dpuv2/internal/serve"
)

func TestDefaultWiringServesBatched(t *testing.T) {
	eng := engine.New(engine.Options{CacheSize: 128})
	srv := serve.New(eng, serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	body, _ := json.Marshal(serve.ExecuteRequest{
		Graph:  "input\ninput\nadd 0 1\nconst 3\nmul 2 3\n",
		Inputs: [][]float64{{2, 5}},
	})
	resp, err := http.Post(ts.URL+"/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out serve.ExecuteResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Batched {
		t.Error("default wiring is not batched")
	}
	if len(out.Results) != 1 || out.Results[0].Outputs[0] != 21 {
		t.Errorf("results = %+v, want [[21]]", out.Results)
	}
}
