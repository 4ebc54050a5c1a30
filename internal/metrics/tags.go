// Stats structs declare their metrics once, in a `prom` struct tag next
// to the `json` one; WriteProm (/metrics, served by Handler), Merge (the
// fleet /stats) and Summarize (the /stats summaries) read the tags, so a
// new metric is one tagged field. An int64 field is a counter when its
// family name ends in _total and a gauge otherwise. A Snapshot field is a
// histogram; its tag may carry labels, `prom:"name{stage=\"x\"}"`, so
// that fields share a family. A Summary field X is always
// XHist.Summary(). Nested structs other than Snapshot and Summary are
// walked; untagged fields ignored.
package metrics

import (
	"bytes"
	"net/http"
	"reflect"
	"strings"
)

var snapshotType, summaryType = reflect.TypeOf(Snapshot{}), reflect.TypeOf(Summary{})

// leaves calls fn with the index path of every field of the struct type
// t, descending into nested structs other than Snapshot and Summary.
func leaves(t reflect.Type, path []int, fn func(sf reflect.StructField, path []int)) {
	for i := 0; i < t.NumField(); i++ {
		sf, p := t.Field(i), append(path[:len(path):len(path)], i)
		if sf.Type.Kind() == reflect.Struct && sf.Type != snapshotType && sf.Type != summaryType {
			leaves(sf.Type, p, fn)
		} else {
			fn(sf, p)
		}
	}
}

// promTag reads a field's declaration: family name, label list and
// kind, or ok=false for an untagged field. A tag on a field of another
// type is a bug in the declaring struct, and panics.
func promTag(sf reflect.StructField) (name, labels, kind string, ok bool) {
	tag, ok := sf.Tag.Lookup("prom")
	name, labels, _ = strings.Cut(tag, "{")
	labels = strings.TrimSuffix(labels, "}")
	switch {
	case !ok:
	case sf.Type == snapshotType:
		kind = "histogram"
	case sf.Type.Kind() != reflect.Int64:
		panic("metrics: prom tag on " + sf.Name + " of type " + sf.Type.String())
	case strings.HasSuffix(name, "_total"):
		kind = "counter"
	default:
		kind = "gauge"
	}
	return name, labels, kind, ok
}

// WriteProm emits every tagged field of stats (a struct or a pointer to
// one), in declaration order.
func WriteProm(p *PromWriter, stats any) {
	v := reflect.Indirect(reflect.ValueOf(stats))
	leaves(v.Type(), nil, func(sf reflect.StructField, path []int) {
		switch name, labels, kind, _ := promTag(sf); kind {
		case "":
		case "histogram":
			p.Histogram(name, labels, v.FieldByIndex(path).Interface().(Snapshot))
		default:
			p.typeLine(name, kind)
			p.sample(name, labels, "%d", v.FieldByIndex(path).Int())
		}
	})
}

// Handler returns the GET /metrics handler of a tier: the tagged
// fields of stats() (WriteProm), then whatever extra writes (nil for
// nothing). The body is buffered, so a failed exposition answers 500
// rather than a truncated 200.
func Handler(stats func() any, extra func(*PromWriter)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		var buf bytes.Buffer
		p := NewPromWriter(&buf)
		WriteProm(p, stats())
		if extra != nil {
			extra(p)
		}
		if err := p.Err(); err != nil {
			http.Error(w, "metrics: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", PromContentType)
		w.Write(buf.Bytes())
	}
}

// Merge folds *src into *dst, two pointers to the same struct type:
// tagged int64 fields add (a fleet's counters and gauges both sum),
// tagged snapshots merge bucket-exact, then Summarize(dst) re-derives
// the summaries. Untagged fields of dst are left alone.
func Merge(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	leaves(d.Type(), nil, func(sf reflect.StructField, path []int) {
		df, sv := d.FieldByIndex(path), s.FieldByIndex(path)
		switch _, _, kind, _ := promTag(sf); kind {
		case "":
		case "histogram":
			df.Set(reflect.ValueOf(df.Interface().(Snapshot).Merge(sv.Interface().(Snapshot))))
		default:
			df.SetInt(df.Int() + sv.Int())
		}
	})
	Summarize(dst)
}

// Summarize sets every Summary field X of *stats to XHist.Summary().
func Summarize(stats any) {
	v := reflect.ValueOf(stats).Elem()
	leaves(v.Type(), nil, func(sf reflect.StructField, path []int) {
		x, ok := strings.CutSuffix(sf.Name, "Hist")
		if !ok || sf.Type != snapshotType {
			return
		}
		sum := v.FieldByIndex(path[:len(path)-1]).FieldByName(x)
		if sum.IsValid() && sum.Type() == summaryType {
			sum.Set(reflect.ValueOf(v.FieldByIndex(path).Interface().(Snapshot).Summary()))
		}
	})
}
