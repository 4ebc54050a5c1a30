package gateway

import (
	"reflect"
	"testing"

	"dpuv2/internal/metrics"
	"dpuv2/internal/serve"
)

var (
	snapshotType = reflect.TypeOf(metrics.Snapshot{})
	summaryType  = reflect.TypeOf(metrics.Summary{})
)

// eachLeaf calls fn for every field reachable from the struct v,
// descending into nested structs other than Snapshot and Summary, with
// the struct holding the field.
func eachLeaf(v reflect.Value, fn func(parent reflect.Value, sf reflect.StructField, f reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		sf, f := v.Type().Field(i), v.Field(i)
		if sf.Type.Kind() == reflect.Struct && sf.Type != snapshotType && sf.Type != summaryType {
			eachLeaf(f, fn)
		} else {
			fn(v, sf, f)
		}
	}
}

// fillStats gives every int64 and Snapshot field of st a value derived
// from seed and the field's position, so no two fields (or seeds) agree.
func fillStats(st *serve.StatsResponse, seed int64) {
	k := int64(0)
	eachLeaf(reflect.ValueOf(st).Elem(), func(_ reflect.Value, sf reflect.StructField, f reflect.Value) {
		k++
		switch {
		case sf.Type == snapshotType:
			var h metrics.Histogram
			for j := int64(0); j < k; j++ {
				h.Observe(seed*1000 + k*j)
			}
			f.Set(reflect.ValueOf(h.Snapshot()))
		case sf.Type.Kind() == reflect.Int64:
			f.SetInt(seed*1000 + k)
		}
	})
}

// TestFleetMergeSumsEveryTaggedField: merging two backends' /stats sums
// every prom-tagged int64, merges every tagged snapshot bucket-exact,
// and leaves every summary equal to Summary() of its (merged) snapshot.
func TestFleetMergeSumsEveryTaggedField(t *testing.T) {
	var a, b serve.StatsResponse
	fillStats(&a, 1)
	fillStats(&b, 2)
	want := a
	metrics.Merge(&a, &b)

	// The leaves of the pre-merge dst and of src, in walk order.
	var befores, others []reflect.Value
	eachLeaf(reflect.ValueOf(&want).Elem(), func(_ reflect.Value, _ reflect.StructField, f reflect.Value) { befores = append(befores, f) })
	eachLeaf(reflect.ValueOf(&b).Elem(), func(_ reflect.Value, _ reflect.StructField, f reflect.Value) { others = append(others, f) })
	tagged, i := 0, 0
	eachLeaf(reflect.ValueOf(&a).Elem(), func(parent reflect.Value, sf reflect.StructField, f reflect.Value) {
		before, other := befores[i], others[i]
		i++
		if _, ok := sf.Tag.Lookup("prom"); ok {
			tagged++
			switch sf.Type {
			case snapshotType:
				if m := before.Interface().(metrics.Snapshot).Merge(other.Interface().(metrics.Snapshot)); !reflect.DeepEqual(f.Interface(), m) {
					t.Errorf("%s: merged snapshot %+v, want %+v", sf.Name, f.Interface(), m)
				}
			default:
				if f.Int() != before.Int()+other.Int() {
					t.Errorf("%s = %d, want %d + %d", sf.Name, f.Int(), before.Int(), other.Int())
				}
			}
		}
		if sf.Type == summaryType {
			hist := parent.FieldByName(sf.Name + "Hist")
			if !hist.IsValid() {
				t.Errorf("summary %s has no %sHist snapshot", sf.Name, sf.Name)
			} else if s := hist.Interface().(metrics.Snapshot).Summary(); f.Interface() != s {
				t.Errorf("%s = %+v, want Summary() of its snapshot %+v", sf.Name, f.Interface(), s)
			}
		}
	})
	if tagged == 0 {
		t.Fatal("no prom-tagged fields in serve.StatsResponse")
	}
}
