package metrics

import (
	"reflect"
	"testing"
)

// TestPromTagGrammar pins how a field's type and `prom` tag declare a
// family: the kind follows the type and the _total suffix, an optional
// {…} suffix is the label list, and a tag on any other type is a bug.
func TestPromTagGrammar(t *testing.T) {
	i64, snap := reflect.TypeOf(int64(0)), reflect.TypeOf(Snapshot{})
	for _, tc := range []struct {
		typ                 reflect.Type
		tag                 reflect.StructTag
		name, labels, kind  string
		tagged, shouldPanic bool
	}{
		{typ: i64, tag: `prom:"dpu_x_total"`, name: "dpu_x_total", kind: "counter", tagged: true},
		{typ: i64, tag: `json:"x" prom:"dpu_x"`, name: "dpu_x", kind: "gauge", tagged: true},
		{typ: i64, tag: `prom:"dpu_x_totals"`, name: "dpu_x_totals", kind: "gauge", tagged: true},
		{typ: i64, tag: `prom:"dpu_x_total{reason=\"nan\"}"`, name: "dpu_x_total", labels: `reason="nan"`, kind: "counter", tagged: true},
		{typ: snap, tag: `prom:"dpu_h_total"`, name: "dpu_h_total", kind: "histogram", tagged: true},
		{typ: snap, tag: `prom:"dpu_h{stage=\"execute\"}"`, name: "dpu_h", labels: `stage="execute"`, kind: "histogram", tagged: true},
		{typ: i64, tag: `json:"x"`},
		{typ: snap},
		{typ: reflect.TypeOf(0), tag: `prom:"dpu_int"`, shouldPanic: true},
		{typ: reflect.TypeOf(Summary{}), tag: `prom:"dpu_summary"`, shouldPanic: true},
	} {
		func() {
			defer func() {
				if r := recover(); (r != nil) != tc.shouldPanic {
					t.Errorf("%s %s: panic = %v, want panic %v", tc.typ, tc.tag, r, tc.shouldPanic)
				}
			}()
			name, labels, kind, ok := promTag(reflect.StructField{Name: "F", Type: tc.typ, Tag: tc.tag})
			if name != tc.name || labels != tc.labels || kind != tc.kind || ok != tc.tagged {
				t.Errorf("%s %s: got (%q, %q, %q, %v), want (%q, %q, %q, %v)", tc.typ, tc.tag,
					name, labels, kind, ok, tc.name, tc.labels, tc.kind, tc.tagged)
			}
		}()
	}
}
