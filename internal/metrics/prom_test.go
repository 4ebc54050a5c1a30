package metrics

import (
	"bytes"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exactQuantile is the reference the histogram's conservative promise is
// checked against: the q-quantile by the same ceil-rank rule, computed
// on the sorted raw observations.
func exactQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestQuantileNeverUnderestimates is the histogram's core contract as a
// property test: for random value populations (spanning the exact unit
// buckets, the log-linear octaves, and huge values), every reported
// quantile is ≥ the exact quantile and within the documented 12.5%
// relative error — and both properties survive Merge.
func TestQuantileNeverUnderestimates(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	quantiles := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	for trial := 0; trial < 50; trial++ {
		var h1, h2 Histogram
		var values []int64
		n := 1 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			var v int64
			switch rng.Intn(3) {
			case 0:
				v = rng.Int63n(16) // exact unit buckets
			case 1:
				v = rng.Int63n(1_000_000) // mid octaves
			default:
				v = rng.Int63n(1 << 50) // huge
			}
			values = append(values, v)
			if rng.Intn(2) == 0 {
				h1.Observe(v)
			} else {
				h2.Observe(v)
			}
		}
		sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
		merged := h1.Snapshot().Merge(h2.Snapshot())
		if merged.Count != uint64(len(values)) {
			t.Fatalf("trial %d: merged count %d, want %d", trial, merged.Count, len(values))
		}
		for _, q := range quantiles {
			got := merged.Quantile(q)
			exact := exactQuantile(values, q)
			if got < exact {
				t.Fatalf("trial %d: q=%v underestimated: got %d, exact %d", trial, q, got, exact)
			}
			// Conservative but bounded: bucket upper bound is within
			// 12.5% above the exact value (and clamped to the true max).
			if limit := exact + exact/8 + 1; got > limit && got > merged.Max {
				t.Fatalf("trial %d: q=%v overshot: got %d, exact %d", trial, q, got, exact)
			}
		}
		if merged.Quantile(1) != values[len(values)-1] {
			t.Fatalf("trial %d: q=1 must be the exact max", trial)
		}
	}
}

// rebuildSnapshot reconstructs a Snapshot from one parsed /metrics
// histogram series: de-cumulate the le buckets, take _count and _sum,
// and the exact max from the <name>_max rider gauge.
func rebuildSnapshot(t *testing.T, fams []*PromFamily, name string, labelSel map[string]string) Snapshot {
	t.Helper()
	match := func(ls map[string]string) bool {
		for k, v := range labelSel {
			if ls[k] != v {
				return false
			}
		}
		return true
	}
	var s Snapshot
	var prev float64
	for _, f := range fams {
		switch f.Name {
		case name:
			for _, smp := range f.Samples {
				if !match(smp.Labels) {
					continue
				}
				switch smp.Name {
				case name + "_bucket":
					le := smp.Labels["le"]
					if le == "+Inf" {
						continue
					}
					upper, err := strconv.ParseInt(le, 10, 64)
					if err != nil {
						t.Fatalf("bad le %q", le)
					}
					if c := smp.Value - prev; c > 0 {
						s.Buckets = append(s.Buckets, Bucket{Upper: upper, Count: uint64(c)})
					}
					prev = smp.Value
				case name + "_count":
					s.Count = uint64(smp.Value)
				case name + "_sum":
					s.Sum = int64(smp.Value)
				}
			}
		case name + "_max":
			for _, smp := range f.Samples {
				if match(smp.Labels) {
					s.Max = int64(smp.Value)
				}
			}
		}
	}
	return s
}

// TestPromExpositionRoundTrip pins the /metrics contract: writing a
// Snapshot through PromWriter.Histogram and re-deriving a Snapshot from
// the parsed cumulative-le exposition yields the same conservative
// quantiles — a scraper loses nothing against /stats.
func TestPromExpositionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		var h Histogram
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			h.Observe(rng.Int63n(1 << uint(10+rng.Intn(30))))
		}
		orig := h.Snapshot()

		var buf bytes.Buffer
		p := NewPromWriter(&buf)
		p.Histogram("dpu_test_latency_ns", `stage="x"`, orig)
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseProm(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: exposition does not parse: %v\n%s", trial, err, buf.String())
		}
		re := rebuildSnapshot(t, fams, "dpu_test_latency_ns", map[string]string{"stage": "x"})
		if re.Count != orig.Count || re.Sum != orig.Sum || re.Max != orig.Max {
			t.Fatalf("trial %d: count/sum/max changed: %+v vs %+v", trial, re, orig)
		}
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 0.999, 1} {
			if got, want := re.Quantile(q), orig.Quantile(q); got != want {
				t.Fatalf("trial %d: q=%v: re-derived %d, original %d", trial, q, got, want)
			}
		}
	}
}

func TestPromWriterCountersAndGauges(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	WriteProm(p, struct {
		Requests int64 `prom:"dpu_requests_total"`
		Depth    int64 `prom:"dpu_queue_depth"`
	}{42, 7})
	p.GaugeLabeled("dpu_backend_up", `backend="http://a"`, 1)
	p.GaugeLabeled("dpu_backend_up", `backend="http://b"`, 0)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if len(fams) != 3 {
		t.Fatalf("got %d families, want 3", len(fams))
	}
	if fams[0].Name != "dpu_requests_total" || fams[0].Kind != "counter" || fams[0].Samples[0].Value != 42 {
		t.Fatalf("counter family %+v", fams[0])
	}
	if fams[1].Name != "dpu_queue_depth" || fams[1].Kind != "gauge" || fams[1].Samples[0].Value != 7 {
		t.Fatalf("gauge family %+v", fams[1])
	}
	if got := len(fams[2].Samples); got != 2 {
		t.Fatalf("labeled gauge has %d samples, want 2", got)
	}
	// One TYPE line per family, even with multiple samples.
	if n := strings.Count(buf.String(), "# TYPE dpu_backend_up"); n != 1 {
		t.Fatalf("%d TYPE lines for dpu_backend_up", n)
	}
}

func TestPromWriterRejectsRetypedFamily(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	WriteProm(p, struct {
		H Snapshot `prom:"dpu_thing"`
		G int64    `prom:"dpu_thing"`
	}{})
	if p.Err() == nil {
		t.Fatal("re-typing a family must error")
	}
}

func TestParsePromRejectsIncoherentHistogram(t *testing.T) {
	bad := []string{
		// _count disagrees with +Inf.
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 5\n",
		// Cumulative counts decrease.
		"# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 3\nh_count 3\n",
		// No +Inf bucket.
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		// Sample without a TYPE.
		"orphan 1\n",
	}
	for i, body := range bad {
		if _, err := ParseProm(strings.NewReader(body)); err == nil {
			t.Errorf("case %d: parsed without error:\n%s", i, body)
		}
	}
}
