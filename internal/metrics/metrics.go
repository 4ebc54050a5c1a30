// Package metrics provides the lock-cheap observability primitives of
// the serving path: a fixed-memory log-linear histogram whose Observe is
// a handful of atomic adds (no mutex, no allocation), suitable for the
// scheduler's per-request latency and batch-size accounting under heavy
// concurrency.
//
// The bucketing is the HDR scheme at 3 sub-bucket bits: values below 16
// land in exact unit buckets; every octave [2^k, 2^(k+1)) above that is
// split into 8 linear sub-buckets, so any recorded value is off by at
// most 12.5% of itself. Quantiles report a bucket's upper bound, never
// underestimating a latency.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// subBits is the log2 of the sub-buckets per octave. 3 gives ≤12.5%
// relative error in 512 buckets (4 KiB of counters per histogram).
const subBits = 3

// nBuckets covers every non-negative int64: 2^(subBits+1) exact unit
// buckets plus 8 sub-buckets for each of the remaining octaves up to 2^62.
const nBuckets = (1 << (subBits + 1)) + (62-subBits)*(1<<subBits)

// Histogram is a fixed-size concurrent histogram of non-negative int64
// values (durations in nanoseconds, batch sizes, queue depths...).
// The zero value is ready to use. Observe never blocks and never
// allocates; Snapshot is wait-free but not atomic across buckets — under
// concurrent writers it sees some prefix of each writer's observations,
// which is exactly what a monitoring endpoint wants.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [nBuckets]atomic.Uint64
}

// bucketIndex maps v to its bucket. Monotone in v.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<(subBits+1) {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // MSB position, ≥ subBits+1
	sub := int(uint64(v)>>(exp-subBits)) & (1<<subBits - 1)
	return 1<<(subBits+1) + (exp-subBits-1)*(1<<subBits) + sub
}

// bucketUpper is the largest value mapping to bucket i (the inverse of
// bucketIndex, used to report conservative quantiles).
func bucketUpper(i int) int64 {
	if i < 1<<(subBits+1) {
		return int64(i)
	}
	i -= 1 << (subBits + 1)
	exp := i/(1<<subBits) + subBits + 1
	sub := int64(i % (1 << subBits))
	lower := int64(1)<<exp + sub<<(exp-subBits)
	return lower + int64(1)<<(exp-subBits) - 1
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Bucket is one non-empty histogram bucket in a Snapshot.
type Bucket struct {
	// Upper is the largest value the bucket covers (inclusive).
	Upper int64  `json:"upper"`
	Count uint64 `json:"count"`
}

// Snapshot is a point-in-time copy of a histogram, safe to query and
// serialize after the histogram moves on.
type Snapshot struct {
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the current state, keeping only non-empty buckets
// (ordered by value).
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, Bucket{Upper: bucketUpper(i), Count: c})
		}
	}
	return s
}

// Merge returns the union of s and o, as if every observation recorded
// into either histogram had been recorded into one. Every Histogram in
// the process (and, because the bucketing is a pure function of the
// value, in every process of a fleet) shares the same fixed bucket
// boundaries, so bucket lists merge losslessly by upper bound: the
// merged quantiles are exactly what one histogram over the combined
// observations would report. This is what lets a gateway aggregate
// per-backend /stats histograms into a fleet-wide view instead of
// averaging quantiles (which is meaningless).
func (s Snapshot) Merge(o Snapshot) Snapshot {
	m := Snapshot{
		Count: s.Count + o.Count,
		Sum:   s.Sum + o.Sum,
		Max:   s.Max,
	}
	if o.Max > m.Max {
		m.Max = o.Max
	}
	m.Buckets = make([]Bucket, 0, len(s.Buckets)+len(o.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Upper < o.Buckets[j].Upper):
			m.Buckets = append(m.Buckets, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].Upper < s.Buckets[i].Upper:
			m.Buckets = append(m.Buckets, o.Buckets[j])
			j++
		default: // same bucket in both
			m.Buckets = append(m.Buckets, Bucket{Upper: s.Buckets[i].Upper, Count: s.Buckets[i].Count + o.Buckets[j].Count})
			i, j = i+1, j+1
		}
	}
	if len(m.Buckets) == 0 {
		m.Buckets = nil
	}
	return m
}

// Quantile returns a conservative (never underestimating) estimate of
// the q-quantile, q in [0,1]: the upper bound of the bucket holding the
// ceil(q·count)-th smallest observation. Returns 0 on an empty snapshot.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			// The histogram's max is exact; never report past it.
			if b.Upper > s.Max {
				return s.Max
			}
			return b.Upper
		}
	}
	return s.Max
}

// Mean returns the exact arithmetic mean of the observations (sums are
// tracked exactly, not from buckets). 0 on an empty snapshot.
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Summary is the JSON-friendly digest served by /stats: counts, exact
// mean/max and conservative p50/p95/p99/p999 in the unit that was
// observed (nanoseconds for latencies, items for batch sizes). P999 is
// what the ROADMAP's overload work steers by: at high load p99 hides
// the retry-inducing tail, p999 doesn't.
type Summary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
	Max   int64   `json:"max"`
}

// Summary digests the snapshot.
func (s Snapshot) Summary() Summary {
	return Summary{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
		Max:   s.Max,
	}
}

// Summary is shorthand for h.Snapshot().Summary().
func (h *Histogram) Summary() Summary { return h.Snapshot().Summary() }
