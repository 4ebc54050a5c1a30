// Prometheus text exposition (format version 0.0.4) over the package's
// histograms, plus a minimal parser for it. The log-linear buckets are
// fixed global boundaries shared by every Histogram, so a Snapshot maps
// directly onto a Prometheus histogram: each bucket's inclusive upper
// bound becomes a cumulative `le` boundary (both are "≤ upper"
// semantics), `_sum`/`_count` come from the exact tracked sum and
// count, and a rider `<name>_max` gauge preserves the exact max so a
// scraper can re-derive the same conservative, max-clamped quantiles
// /stats reports. The parser exists so tests and CI can assert a
// /metrics body is well-formed without a Prometheus dependency.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter emits one /metrics body. Each family's `# TYPE` line is
// written once, on the family's first sample; re-registering a family
// under a different kind is an error surfaced by Err.
type PromWriter struct {
	w     io.Writer
	types map[string]string
	err   error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, types: make(map[string]string)}
}

// Err returns the first error encountered (I/O or a family re-typed).
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) typeLine(name, kind string) {
	if p.err != nil {
		return
	}
	if have, ok := p.types[name]; ok {
		if have != kind {
			p.err = fmt.Errorf("metrics: family %s emitted as both %s and %s", name, have, kind)
		}
		return
	}
	p.types[name] = kind
	_, err := fmt.Fprintf(p.w, "# TYPE %s %s\n", name, kind)
	if err != nil {
		p.err = err
	}
}

func (p *PromWriter) sample(name, labels string, format string, args ...any) {
	if p.err != nil {
		return
	}
	if labels != "" {
		name = name + "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(p.w, "%s "+format+"\n", append([]any{name}, args...)...); err != nil {
		p.err = err
	}
}

// GaugeLabeled emits one labeled sample of a gauge family (the TYPE
// line is shared across calls with the same name).
func (p *PromWriter) GaugeLabeled(name, labels string, v int64) {
	p.typeLine(name, "gauge")
	p.sample(name, labels, "%d", v)
}

// Histogram emits one labeled series of a histogram family from a
// Snapshot: cumulative `_bucket{le=...}` samples over the non-empty
// buckets (sparse `le` values are valid — the boundaries are a pure
// function of the value, identical across every histogram), the `+Inf`
// bucket, `_sum` and `_count`, plus the exact-max rider gauge
// `<name>_max`. labels may be "" or a rendered list like
// `stage="queue_wait"`.
func (p *PromWriter) Histogram(name, labels string, s Snapshot) {
	p.typeLine(name, "histogram")
	le := func(bound string) string {
		if labels == "" {
			return `le="` + bound + `"`
		}
		return labels + `,le="` + bound + `"`
	}
	// The bucket array is read after count under concurrent writers, so
	// its total can exceed s.Count; the exposition must be internally
	// coherent (+Inf == _count), so the bucket total is authoritative.
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		p.sample(name+"_bucket", le(strconv.FormatInt(b.Upper, 10)), "%d", cum)
	}
	p.sample(name+"_bucket", le("+Inf"), "%d", cum)
	p.sample(name+"_sum", labels, "%d", s.Sum)
	p.sample(name+"_count", labels, "%d", cum)
	p.typeLine(name+"_max", "gauge")
	p.sample(name+"_max", labels, "%d", s.Max)
}

// PromSample is one parsed sample line.
type PromSample struct {
	// Name is the full sample name, including any _bucket/_sum/_count
	// suffix.
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily is one parsed metric family.
type PromFamily struct {
	Name    string
	Kind    string // counter, gauge, histogram, ...
	Samples []PromSample
}

// ParseProm parses a text-exposition body and validates its structure:
// every sample must belong to a family declared by a preceding `# TYPE`
// line, names must be legal, and histogram families must be coherent
// (per label set: cumulative bucket counts non-decreasing in `le`, a
// `+Inf` bucket present and equal to `_count`, `_sum` present).
// Families are returned in declaration order.
func ParseProm(r io.Reader) ([]*PromFamily, error) {
	var fams []*PromFamily
	byName := make(map[string]*PromFamily)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("prom: line %d: malformed TYPE line", lineNo)
				}
				name, kind := fields[2], fields[3]
				if !promNameOK(name) {
					return nil, fmt.Errorf("prom: line %d: bad family name %q", lineNo, name)
				}
				if byName[name] != nil {
					return nil, fmt.Errorf("prom: line %d: duplicate TYPE for %s", lineNo, name)
				}
				f := &PromFamily{Name: name, Kind: kind}
				byName[name] = f
				fams = append(fams, f)
			}
			continue // HELP and other comments
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("prom: line %d: %w", lineNo, err)
		}
		f := byName[s.Name]
		if f == nil {
			// Histogram samples carry suffixed names.
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(s.Name, suffix)
				if base != s.Name && byName[base] != nil && byName[base].Kind == "histogram" {
					f = byName[base]
					break
				}
			}
		}
		if f == nil {
			return nil, fmt.Errorf("prom: line %d: sample %s has no preceding TYPE", lineNo, s.Name)
		}
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range fams {
		if f.Kind == "histogram" {
			if err := checkPromHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

func promNameOK(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// parsePromSample parses `name{label="v",...} value`.
func parsePromSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ \t"); i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if !promNameOK(s.Name) {
		return s, fmt.Errorf("bad sample name %q", s.Name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parsePromLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may trail the value; the value is the first field.
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

func parsePromLabels(body string, into map[string]string) error {
	for len(body) > 0 {
		eq := strings.Index(body, "=")
		if eq < 0 {
			return fmt.Errorf("malformed labels %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		if !promNameOK(key) || strings.Contains(key, ":") {
			return fmt.Errorf("bad label name %q", key)
		}
		rest := strings.TrimSpace(body[eq+1:])
		if !strings.HasPrefix(rest, `"`) {
			return fmt.Errorf("unquoted label value in %q", body)
		}
		rest = rest[1:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(rest) {
			return fmt.Errorf("unterminated label value in %q", body)
		}
		into[key] = val.String()
		body = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
	}
	return nil
}

// labelFingerprint renders a label set minus `le`, canonically ordered,
// to group one histogram series' samples.
func labelFingerprint(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// checkPromHistogram validates one histogram family's coherence.
func checkPromHistogram(f *PromFamily) error {
	type series struct {
		bounds []float64
		counts []float64
		inf    *float64
		count  *float64
		sum    bool
	}
	byLabels := map[string]*series{}
	get := func(ls map[string]string) *series {
		fp := labelFingerprint(ls)
		s := byLabels[fp]
		if s == nil {
			s = &series{}
			byLabels[fp] = s
		}
		return s
	}
	for i := range f.Samples {
		smp := &f.Samples[i]
		s := get(smp.Labels)
		switch smp.Name {
		case f.Name + "_bucket":
			le, ok := smp.Labels["le"]
			if !ok {
				return fmt.Errorf("prom: %s: bucket sample without le", f.Name)
			}
			if le == "+Inf" {
				v := smp.Value
				s.inf = &v
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("prom: %s: bad le %q", f.Name, le)
			}
			s.bounds = append(s.bounds, bound)
			s.counts = append(s.counts, smp.Value)
		case f.Name + "_count":
			v := smp.Value
			s.count = &v
		case f.Name + "_sum":
			s.sum = true
		default:
			return fmt.Errorf("prom: %s: unexpected histogram sample %s", f.Name, smp.Name)
		}
	}
	for fp, s := range byLabels {
		if s.inf == nil {
			return fmt.Errorf("prom: %s{%s}: no +Inf bucket", f.Name, fp)
		}
		if s.count == nil || !s.sum {
			return fmt.Errorf("prom: %s{%s}: missing _count or _sum", f.Name, fp)
		}
		if *s.count != *s.inf {
			return fmt.Errorf("prom: %s{%s}: _count %v != +Inf bucket %v", f.Name, fp, *s.count, *s.inf)
		}
		for i := 1; i < len(s.bounds); i++ {
			if s.bounds[i] <= s.bounds[i-1] {
				return fmt.Errorf("prom: %s{%s}: le bounds not increasing", f.Name, fp)
			}
			if s.counts[i] < s.counts[i-1] {
				return fmt.Errorf("prom: %s{%s}: cumulative counts decrease at le=%v", f.Name, fp, s.bounds[i])
			}
		}
		if n := len(s.counts); n > 0 && s.counts[n-1] > *s.inf {
			return fmt.Errorf("prom: %s{%s}: last bucket exceeds +Inf", f.Name, fp)
		}
	}
	return nil
}
