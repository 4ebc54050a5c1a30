package main

import "time"

// span is one timed interval at a layer boundary. Spans of one request
// (or one toolchain job) share Req; Parent is the index of the span
// that caused this one, -1 for a root. Times are nanoseconds of host
// time since the recorder was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// recorder keeps spans in memory until the benchmark writes them out.
// It is recorded from the benchmark's own code, around the calls into
// each layer; a nil *recorder records nothing, which is how the replay
// runs "spans off" to measure what recording costs. Not safe for
// concurrent use: the traced replay is sequential by design.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Req: req, Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
}

// selfTimes groups every span's self time in nanoseconds by span name,
// in recording order. A span's self time is its duration minus the part
// its direct children cover; children are sequential here, so that part
// is the sum of their durations.
func (r *recorder) selfTimes() map[string][]float64 {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for i, s := range r.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i]))
	}
	return out
}
