package serve

// The POST /execute body decoder. A serve_batch body is a 2399-node
// graph and 256 input vectors, and decoding it through encoding/json's
// reflection costs more than evaluating it; this decoder reads the body
// in one pass instead. The graph is unescaped once, every input number
// goes into one flat []float64 that the rows are views of, and only the
// small config and options objects are handed to json.Unmarshal.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// bodyChunk caps what a declared Content-Length may presize: a client
// that declares MaxRequestBytes and sends ten bytes costs one chunk, and
// a longer body grows the buffer only as its bytes arrive.
const bodyChunk = 256 << 10

// ReadBody reads a POST /execute body of at most MaxRequestBytes. The
// gateway reads with it too, so both tiers bound bodies the same way.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > MaxRequestBytes {
		return nil, fmt.Errorf("declared body of %d bytes exceeds the %d-byte limit", r.ContentLength, MaxRequestBytes)
	}
	var buf bytes.Buffer
	// MinRead of headroom lets an honest Content-Length be read, EOF
	// included, into the one allocation.
	buf.Grow(int(min(max(r.ContentLength, 0), bodyChunk)) + bytes.MinRead)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	return buf.Bytes(), err
}

// DecodeExecuteRequest decodes a POST /execute body. It accepts exactly
// the bodies json.Unmarshal(body, &ExecuteRequest{}) accepts and decodes
// them to the same value: keys match fields case-insensitively, a
// repeated key decodes over the earlier value, unknown fields and nulls
// are skipped, and an input number strconv.ParseFloat cannot represent,
// such as 1e400, is an error.
func DecodeExecuteRequest(body []byte) (ExecuteRequest, error) {
	d := decoder{buf: body}
	var req ExecuteRequest
	d.space()
	var err error
	switch d.peek() {
	case '{':
		err = d.object(func(key []byte) error {
			switch fieldOf(key) {
			case "graph":
				return d.graph(&req.Graph)
			case "config":
				return d.unmarshal(&req.Config)
			case "options":
				return d.unmarshal(&req.Options)
			case "inputs":
				return d.inputs(&req.Inputs)
			}
			return d.skip()
		})
	case 'n':
		err = d.literal("null")
	default:
		err = d.unexpected("an object")
	}
	if err == nil {
		if d.space(); d.pos < len(d.buf) {
			err = d.unexpected("the end of the body")
		}
	}
	if err != nil {
		return ExecuteRequest{}, fmt.Errorf("json: %w", err)
	}
	return req, nil
}

// fields are ExecuteRequest's JSON names. encoding/json matches a key to
// one exactly or else under Unicode case folding, which for four names
// that differ under folding is strings.EqualFold alone.
var fields = [...]string{"graph", "config", "options", "inputs"}

// fieldOf returns the field the raw (still escaped) key names, or "".
func fieldOf(raw []byte) string {
	key := string(raw)
	if strings.IndexByte(key, '\\') >= 0 {
		var sb strings.Builder
		unquote(&sb, raw)
		key = sb.String()
	}
	for _, f := range fields {
		if strings.EqualFold(key, f) {
			return f
		}
	}
	return ""
}

// maxDepth is encoding/json's nesting limit; a deeper body is rejected.
const maxDepth = 10000

// decoder scans one body. Every method starts at the first byte of its
// value (leading space already skipped) and leaves pos just past it.
type decoder struct {
	buf      []byte
	pos      int
	depth    int
	presized bool // an "inputs" has been presized
}

func (d *decoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

func (d *decoder) space() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *decoder) unexpected(want string) error {
	if d.pos >= len(d.buf) {
		return fmt.Errorf("unexpected end of input, want %s", want)
	}
	return fmt.Errorf("offset %d: want %s, got %q", d.pos, want, d.buf[d.pos])
}

func (d *decoder) literal(lit string) error {
	if !bytes.HasPrefix(d.buf[d.pos:], []byte(lit)) {
		return d.unexpected(lit)
	}
	d.pos += len(lit)
	return nil
}

// object scans an object, calling member for each key with the decoder
// at the key's value.
func (d *decoder) object(member func(key []byte) error) error {
	return d.list('{', '}', func() error {
		if d.peek() != '"' {
			return d.unexpected("a string key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.unexpected("':'")
		}
		d.pos++
		d.space()
		return member(key)
	})
}

// list scans the open byte, then elem for each element (an object's
// members) separated by commas, then the close byte.
func (d *decoder) list(open, close byte, elem func() error) error {
	if d.peek() != open {
		return d.unexpected(fmt.Sprintf("%q", open))
	}
	if d.depth++; d.depth > maxDepth {
		return errors.New("exceeded max nesting depth")
	}
	d.pos++
	d.space()
	if d.peek() == close {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
			d.space()
		case close:
			d.pos++
			d.depth--
			return nil
		default:
			return d.unexpected(fmt.Sprintf("',' or %q", close))
		}
	}
}

// skip scans any value, checking it against the JSON grammar.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		return d.list('[', ']', d.skip)
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.numberText()
		return err
	}
	return d.unexpected("a value")
}

// unmarshal hands the raw bytes of the value at pos to json.Unmarshal.
// Decoding into *v, it merges over what an earlier key left as
// encoding/json does.
func (d *decoder) unmarshal(v any) error {
	start := d.pos
	if err := d.skip(); err != nil {
		return err
	}
	return json.Unmarshal(d.buf[start:d.pos], v)
}

func (d *decoder) graph(dst *string) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	if d.peek() != '"' {
		return d.unexpected("graph as a string")
	}
	raw, err := d.str()
	if err != nil {
		return err
	}
	var sb strings.Builder
	sb.Grow(len(raw))
	unquote(&sb, raw)
	*dst = sb.String()
	return nil
}

// str scans a string and returns its body between the quotes, still
// escaped.
func (d *decoder) str() ([]byte, error) {
	b := d.buf
	for i := d.pos + 1; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			raw := b[d.pos+1 : i]
			d.pos = i + 1
			return raw, nil
		case c == '\\' && i+1 < len(b):
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
				continue
			case 'u':
				if i+6 <= len(b) && hex4(b[i+2:i+6]) >= 0 {
					i += 6
					continue
				}
			}
			d.pos = i + 1
			return nil, d.unexpected("an escape")
		case c < ' ':
			d.pos = i
			return nil, d.unexpected("a string character")
		}
		i++
	}
	d.pos = len(b)
	return nil, d.unexpected("'\"'")
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote writes the string body s, which str has checked, unescaped as
// encoding/json does: invalid UTF-8 and unpaired surrogates become
// U+FFFD.
func unquote(sb *strings.Builder, s []byte) {
	for len(s) > 0 {
		n := bytes.IndexByte(s, '\\')
		if n < 0 {
			n = len(s)
		}
		if run := s[:n]; utf8.Valid(run) {
			sb.Write(run)
		} else {
			for len(run) > 0 {
				r, size := utf8.DecodeRune(run)
				sb.WriteRune(r)
				run = run[size:]
			}
		}
		if s = s[n:]; len(s) == 0 {
			return
		}
		c := s[1]
		s = s[2:]
		switch c {
		case 'b':
			sb.WriteByte('\b')
		case 'f':
			sb.WriteByte('\f')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		case 't':
			sb.WriteByte('\t')
		case 'u':
			r := hex4(s)
			s = s[4:]
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if len(s) >= 6 && s[0] == '\\' && s[1] == 'u' {
					r2 = hex4(s[2:])
				}
				if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
					s = s[6:]
				}
			}
			sb.WriteRune(r)
		default: // '"', '\\', '/'
			sb.WriteByte(c)
		}
	}
}

// numberText scans a number against the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text.
func (d *decoder) numberText() ([]byte, error) {
	b, start := d.buf, d.pos
	i := start
	// digits advances i over a run of digits and reports whether it
	// was non-empty.
	digits := func() bool {
		n := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > n
	}
	is := func(c byte) bool { return i < len(b) && b[i] == c }
	if is('-') {
		i++
	}
	ok := true
	if is('0') {
		i++
	} else {
		ok = digits()
	}
	if ok && is('.') {
		i++
		ok = digits()
	}
	if ok && (is('e') || is('E')) {
		if i++; is('+') || is('-') {
			i++
		}
		ok = digits()
	}
	d.pos = i
	if !ok {
		return nil, d.unexpected("a digit")
	}
	return b[start:i], nil
}

// inputs decodes the "inputs" value. Every number of one array goes into
// one flat slice, parsed by strconv.ParseFloat(s, 64) as encoding/json
// does, and each row is a capacity-clipped view of it, so a row never
// grows into its neighbour.
func (d *decoder) inputs(dst *[][]float64) error {
	if d.peek() == 'n' {
		*dst = nil
		return d.literal("null")
	}
	// The first "inputs" presizes for ~16 bytes a number over the rest of
	// the body (a float64's shortest form plus its comma is 18–25 bytes),
	// so one allocation usually holds every number. A repeated key starts
	// empty, or a body of repeated keys would allocate quadratically.
	flat := []float64{}
	if !d.presized {
		d.presized = true
		flat = make([]float64, 0, (len(d.buf)-d.pos)/16)
	}
	var rows [][]float64
	var nulls []int // flat offsets of null elements
	err := d.list('[', ']', func() error {
		if d.peek() == 'n' {
			rows = append(rows, nil)
			return d.literal("null")
		}
		start := len(flat)
		err := d.list('[', ']', func() error {
			if d.peek() == 'n' {
				nulls = append(nulls, len(flat))
				flat = append(flat, 0)
				return d.literal("null")
			}
			text, err := d.numberText()
			if err != nil {
				return err
			}
			v, err := strconv.ParseFloat(string(text), 64)
			if err != nil {
				return fmt.Errorf("inputs[%d][%d]: %w", len(rows), len(flat)-start, err)
			}
			if len(flat) == cap(flat) {
				flat = slices.Grow(flat, len(flat)+1) // double, where append would add a quarter
			}
			flat = append(flat, v)
			return nil
		})
		rows = append(rows, flat[start:len(flat):len(flat)]) // [] is empty, not nil
		return err
	})
	if err != nil {
		return err
	}
	// Point the rows at the final flat slice; growing it moved it.
	off := 0
	for i, r := range rows {
		if r != nil {
			rows[i] = flat[off : off+len(r) : off+len(r)]
			off += len(r)
		}
	}
	if rows == nil {
		rows = [][]float64{}
	}
	if *dst == nil {
		*dst = rows
	} else {
		*dst = decodeOver(*dst, rows, nulls)
	}
	return nil
}

// decodeOver decodes src, a repeated "inputs", over the rows dst an
// earlier one left, as encoding/json decodes into an existing slice: in
// place, keeping whatever lies between a slice's length and capacity (so
// a null element keeps the value an earlier key wrote there), truncating
// to src's length, and replacing an empty array with a new one.
func decodeOver(dst, src [][]float64, nulls []int) [][]float64 {
	off := 0 // flat offset of the element being decoded, to match nulls
	for i, s := range src {
		if i == len(dst) {
			dst = extend(dst)
		}
		if s == nil {
			dst[i] = nil
			continue
		}
		row := dst[i]
		for j, v := range s {
			if j == len(row) {
				row = extend(row)
			}
			if len(nulls) > 0 && nulls[0] == off {
				nulls = nulls[1:]
			} else {
				row[j] = v
			}
			off++
		}
		if len(s) == 0 {
			row = []float64{}
		}
		dst[i] = row[:len(s)]
	}
	if len(src) == 0 {
		return [][]float64{}
	}
	return dst[:len(src)]
}

// extend lengthens s by one element, exposing what lies past its length
// if it has the capacity.
func extend[E any](s []E) []E {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero E
	return append(s, zero)
}
