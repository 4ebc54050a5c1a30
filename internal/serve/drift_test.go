package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"dpuv2/internal/engine"
	"dpuv2/internal/gateway"
	"dpuv2/internal/metrics"
	"dpuv2/internal/metrics/promtest"
	"dpuv2/internal/serve"
)

// untaggedOK lists the int64/Snapshot stats fields that may lack a
// `prom` tag: the always-zero linger fields kept on the wire for bench/.
var untaggedOK = map[string]bool{"LingerFlushes": true, "LingerHist": true}

// promTags walks the struct type t like package metrics does and returns
// the tags of its int64 and Snapshot fields, failing the test on any
// untagged one outside untaggedOK.
func promTags(t *testing.T, typ reflect.Type) []string {
	t.Helper()
	snap, sum := reflect.TypeOf(metrics.Snapshot{}), reflect.TypeOf(metrics.Summary{})
	var tags []string
	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		switch {
		case sf.Type.Kind() == reflect.Struct && sf.Type != snap && sf.Type != sum:
			tags = append(tags, promTags(t, sf.Type)...)
		case sf.Type != snap && sf.Type.Kind() != reflect.Int64:
		case sf.Tag.Get("prom") != "":
			tags = append(tags, sf.Tag.Get("prom"))
		case !untaggedOK[sf.Name]:
			t.Errorf("%s.%s has no prom tag: it would be on /stats but not on /metrics or in the fleet merge", typ, sf.Name)
		}
	}
	return tags
}

// scrape parses url's /metrics into series keyed `name` and
// `name{labels}` (le excluded).
func scrape(t *testing.T, url string) map[string]bool {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := promtest.Parse(resp.Body)
	if err != nil {
		t.Fatalf("%s/metrics does not parse: %v", url, err)
	}
	series := map[string]bool{}
	for _, f := range fams {
		series[f.Name] = true
		for _, s := range f.Samples {
			for k, v := range s.Labels {
				if k != "le" {
					series[f.Name+`{`+k+`="`+v+`"}`] = true
				}
			}
		}
	}
	return series
}

// TestStatsFieldsCarryPromTags is the drift guard between /stats and
// /metrics: every counter, gauge and histogram on a backend's and the
// gateway's /stats is declared by a `prom` tag, and after one request
// through a gateway every declared family (and label) is scraped from
// the matching /metrics.
func TestStatsFieldsCarryPromTags(t *testing.T) {
	s := serve.New(engine.New(engine.Options{}), serve.Options{})
	be := httptest.NewServer(s.Handler())
	t.Cleanup(be.Close)
	t.Cleanup(s.Drain)
	gw, err := gateway.New(gateway.Options{Backends: []string{be.URL}, HealthInterval: 10 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	front := httptest.NewServer(gw.Handler())
	t.Cleanup(front.Close)

	body, _ := json.Marshal(serve.ExecuteRequest{Graph: "input\ninput\nadd 0 1\n", Inputs: [][]float64{{1, 2}}})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Post(front.URL+"/execute", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never proxied a request: status %d", resp.StatusCode)
		}
	}

	for url, typ := range map[string]reflect.Type{
		be.URL:    reflect.TypeOf(serve.StatsResponse{}),
		front.URL: reflect.TypeOf(gateway.GatewayStats{}),
	} {
		series := scrape(t, url)
		for _, tag := range promTags(t, typ) {
			if !series[tag] {
				t.Errorf("%s declares %s, missing from /metrics", typ, tag)
			}
		}
	}
}
