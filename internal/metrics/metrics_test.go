package metrics

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketRoundTrip pins the log-linear bucketing contract: every
// value maps to a bucket whose range contains it, indexes are monotone,
// and the relative error of the upper bound is within 12.5%.
func TestBucketRoundTrip(t *testing.T) {
	vals := []int64{0, 1, 2, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, 1<<40 + 12345, 1 << 62}
	prev := -1
	for _, v := range vals {
		i := bucketIndex(v)
		if i < prev {
			t.Errorf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
		up := bucketUpper(i)
		if up < v {
			t.Errorf("bucketUpper(%d) = %d < value %d", i, up, v)
		}
		if v >= 16 && float64(up-v) > 0.125*float64(v) {
			t.Errorf("value %d: upper %d overshoots by more than 12.5%%", v, up)
		}
		if v < 16 && up != v {
			t.Errorf("small value %d not exact: upper %d", v, up)
		}
	}
	// Exhaustive containment for small values, where bucketing is exact.
	for v := int64(0); v < 4096; v++ {
		i := bucketIndex(v)
		if up := bucketUpper(i); up < v {
			t.Fatalf("bucketUpper(bucketIndex(%d)) = %d < %d", v, up, v)
		}
	}
}

func TestQuantilesAgainstSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(1_000_000)
		h.Observe(vals[i])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.Snapshot()
	if s.Count != uint64(len(vals)) {
		t.Fatalf("count = %d, want %d", s.Count, len(vals))
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := vals[int(q*float64(len(vals)-1))]
		got := s.Quantile(q)
		if got < exact {
			t.Errorf("q%.2f = %d underestimates exact %d", q, got, exact)
		}
		if float64(got-exact) > 0.13*float64(exact)+1 {
			t.Errorf("q%.2f = %d overshoots exact %d beyond bucket error", q, got, exact)
		}
	}
	if s.Max != vals[len(vals)-1] {
		t.Errorf("max = %d, want %d", s.Max, vals[len(vals)-1])
	}
	var sum int64
	for _, v := range vals {
		sum += v
	}
	if s.Mean() != float64(sum)/float64(len(vals)) {
		t.Errorf("mean = %v, want exact %v", s.Mean(), float64(sum)/float64(len(vals)))
	}
}

// TestQuantileCeilRank pins the documented rank contract: the
// q-quantile is the bucket of the ceil(q·count)-th smallest observation.
// With 13 observations, q=0.95 → rank ceil(12.35)=13, the maximum; a
// rounding rank (12) would report the small cluster instead.
func TestQuantileCeilRank(t *testing.T) {
	var h Histogram
	for i := 0; i < 12; i++ {
		h.Observe(1000)
	}
	h.Observe(10_000_000_000)
	s := h.Snapshot()
	if got := s.Quantile(0.95); got != s.Max {
		t.Errorf("p95 of 12×1µs + 1×10s = %d, want the max %d (rank must ceil)", got, s.Max)
	}
	if got := s.Quantile(0.5); got >= 10_000_000_000 {
		t.Errorf("p50 = %d, want the small cluster", got)
	}
}

func TestEmptyAndEdgeSnapshots(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Quantile(0.99) != 0 || s.Mean() != 0 || s.Summary().Count != 0 {
		t.Errorf("empty histogram not all-zero: %+v", s.Summary())
	}
	h.Observe(-5) // clamps to 0
	h.Observe(0)
	s = h.Snapshot()
	if s.Count != 2 || s.Quantile(1) != 0 || s.Sum != 0 {
		t.Errorf("negative clamp: %+v", s)
	}
	h.ObserveDuration(2 * time.Millisecond)
	if got := h.Summary().Max; got != int64(2*time.Millisecond) {
		t.Errorf("ObserveDuration max = %d", got)
	}
}

// TestConcurrentObserve hammers one histogram from many goroutines; run
// under -race it proves Observe/Snapshot need no external locking, and
// the final count/sum must be exact (atomics lose nothing).
func TestConcurrentObserve(t *testing.T) {
	const workers, per = 8, 10000
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
				if i%1000 == 0 {
					_ = h.Snapshot() // concurrent reader
				}
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Errorf("count = %d, want %d", s.Count, workers*per)
	}
	n := int64(workers * per)
	if s.Sum != n*(n-1)/2 {
		t.Errorf("sum = %d, want %d", s.Sum, n*(n-1)/2)
	}
	var bucketTotal uint64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != s.Count {
		t.Errorf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

// TestSnapshotMerge pins the fleet-aggregation contract: merging two
// snapshots is byte-identical to one histogram that saw every
// observation, whatever the interleaving — so a gateway's merged
// quantiles are exact, not approximations of approximations.
func TestSnapshotMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var a, b, all Histogram
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << uint(rng.Intn(40)))
		if i%3 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	got := a.Snapshot().Merge(b.Snapshot())
	want := all.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged snapshot diverges from combined histogram:\n got %+v\nwant %+v", got, want)
	}
	if gs, ws := got.Summary(), want.Summary(); gs != ws {
		t.Errorf("merged summary %+v != combined summary %+v", gs, ws)
	}

	// Merge with the empty snapshot is the identity.
	if !reflect.DeepEqual(want.Merge(Snapshot{}), want) {
		t.Error("merge with empty snapshot is not the identity")
	}
}
