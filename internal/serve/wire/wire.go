// Package wire holds the JSON primitives the /query codecs of
// internal/serve and internal/serve/client are built from: append-style
// encoders that write exactly the bytes encoding/json writes for the
// same Go values, and a Scanner that reads compact, plain JSON without
// reflection.
//
// The Scanner is a fast path, not a second JSON dialect. It accepts a
// strict subset of JSON: no whitespace, no escapes, ASCII strings only,
// no null, numbers in range for their Go type. Any method returns false
// on input outside that subset, and the caller then decodes the whole
// input with encoding/json instead, so for every input the pair decodes
// exactly what encoding/json decodes.
//
// Nothing here panics on any input.
package wire

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// maxPooledBuffer is the largest buffer the pool keeps, so that a rare
// huge request or response does not pin its memory for good.
const maxPooledBuffer = 256 << 10

// Buffer is a pooled byte buffer for one message body. As a request
// body (an io.ReadCloser) it goes back to the pool when the transport
// closes it.
type Buffer struct {
	B      []byte
	off    int
	closed atomic.Bool
}

var bufferPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 4096)} }}

// GetBuffer returns an empty buffer from the pool.
func GetBuffer() *Buffer {
	b := bufferPool.Get().(*Buffer)
	b.B, b.off = b.B[:0], 0
	b.closed.Store(false)
	return b
}

// Release returns the buffer to the pool; nothing may use it after.
func (b *Buffer) Release() {
	if cap(b.B) <= maxPooledBuffer {
		bufferPool.Put(b)
	}
}

// Read reads the buffer's bytes as a request body.
func (b *Buffer) Read(p []byte) (int, error) {
	if b.off >= len(b.B) {
		return 0, io.EOF
	}
	n := copy(p, b.B[b.off:])
	b.off += n
	return n, nil
}

// Close releases a request body. An http.RoundTripper closes the body
// once it is done reading it, which may be after the round trip
// returns, so this is the point at which it can be reused.
func (b *Buffer) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		b.Release()
	}
	return nil
}

// ReadAll appends all of r to the buffer.
func (b *Buffer) ReadAll(r io.Reader) error {
	for {
		if len(b.B) == cap(b.B) {
			b.B = append(b.B, 0)[:len(b.B)]
		}
		n, err := r.Read(b.B[len(b.B):cap(b.B)])
		b.B = b.B[:len(b.B)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// AppendFloat appends f as encoding/json formats a float64: 'f' format,
// or 'e' below 1e-6 and from 1e21 up with the exponent's leading zero
// dropped. ok is false for NaN and ±Inf, which encoding/json refuses.
func AppendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// AppendString appends s as a JSON string the way encoding/json does
// with HTML escaping on (its default).
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) || s[i] == '<' || s[i] == '>' || s[i] == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// plain reports whether c stands for itself inside a JSON string.
func plain(c byte) bool { return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' }

// AppendFloats appends a JSON array of floats; ok as for AppendFloat.
func AppendFloats(b []byte, vs []float64) (_ []byte, ok bool) {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		if b, ok = AppendFloat(b, v); !ok {
			return b, false
		}
	}
	return append(b, ']'), true
}

// AppendInts appends a JSON array of ints.
func AppendInts(b []byte, vs []int) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// AppendFloatLists appends a JSON array of float arrays; a nil inner
// list is null, as encoding/json writes it.
func AppendFloatLists(b []byte, ls [][]float64) (_ []byte, ok bool) {
	b = append(b, '[')
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		if l == nil {
			b = append(b, "null"...)
		} else if b, ok = AppendFloats(b, l); !ok {
			return b, false
		}
	}
	return append(b, ']'), true
}

// AppendIntLists appends a JSON array of int arrays; a nil inner list
// is null.
func AppendIntLists(b []byte, ls [][]int) []byte {
	b = append(b, '[')
	for i, l := range ls {
		if i > 0 {
			b = append(b, ',')
		}
		if l == nil {
			b = append(b, "null"...)
		} else {
			b = AppendInts(b, l)
		}
	}
	return append(b, ']')
}

// AppendKey appends `"name":` after a '{' or a ',' as needed: first is
// true for an object's first member.
func AppendKey(b []byte, name string, first bool) []byte {
	if !first {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, name...)
	return append(b, '"', ':')
}

// Scanner reads one compact JSON document. Its zero value is not
// useful; use NewScanner.
type Scanner struct {
	b []byte
	i int
}

// NewScanner returns a scanner at the start of b.
func NewScanner(b []byte) *Scanner { return &Scanner{b: b} }

// peek returns the next byte, or 0 at the end.
func (s *Scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// eat consumes c if it is next.
func (s *Scanner) eat(c byte) bool {
	if s.peek() == c {
		s.i++
		return true
	}
	return false
}

// End reports whether only JSON whitespace is left.
func (s *Scanner) End() bool {
	for _, c := range s.b[s.i:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// maxMembers bounds the members of an object the scanner reads, above
// the count of any type it decodes.
const maxMembers = 16

// Object reads a compact object, calling member with each key; member
// reads the value and reports whether it could. Object is false for a
// key it cannot read plainly, a key seen before in the object (encoding/
// json lets the last one win, and so decides it) and a member that
// fails.
func (s *Scanner) Object(member func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	var seen [maxMembers][]byte
	for n := 0; ; n++ {
		key, ok := s.str()
		if !ok || !s.eat(':') || n == maxMembers {
			return false
		}
		for _, k := range seen[:n] {
			if string(k) == string(key) {
				return false
			}
		}
		seen[n] = key
		if !member(key) {
			return false
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// str reads a plain string and returns its bytes, aliasing the input.
func (s *Scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && plain(s.b[s.i]) {
		s.i++
	}
	if !s.eat('"') {
		return nil, false
	}
	return s.b[start : s.i-1], true
}

// Str reads a plain string.
func (s *Scanner) Str() (string, bool) {
	v, ok := s.str()
	return string(v), ok
}

// Bool reads true or false.
func (s *Scanner) Bool() (v, ok bool) {
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, true
	}
	return false, false
}

// number reads a literal of JSON's number grammar; integral is false
// when it has a fraction or an exponent.
func (s *Scanner) number() (lit []byte, integral, ok bool) {
	start := s.i
	s.eat('-')
	switch c := s.peek(); {
	case c == '0':
		s.i++
	case c >= '1' && c <= '9':
		s.digits()
	default:
		return nil, false, false
	}
	integral = true
	if s.eat('.') {
		if !s.digits() {
			return nil, false, false
		}
		integral = false
	}
	if s.eat('e') || s.eat('E') {
		if !s.eat('+') {
			s.eat('-')
		}
		if !s.digits() {
			return nil, false, false
		}
		integral = false
	}
	return s.b[start:s.i], integral, true
}

// digits consumes a run of decimal digits and reports whether there
// was at least one.
func (s *Scanner) digits() bool {
	start := s.i
	for c := s.peek(); c >= '0' && c <= '9'; c = s.peek() {
		s.i++
	}
	return s.i > start
}

// Float reads a number into a float64; out-of-range literals fail, as
// they fail encoding/json.
func (s *Scanner) Float() (float64, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	if v, ok := exactDecimal(lit); ok {
		return v, true
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exactDecimal converts a number literal without an exponent whose
// digits, read as one integer m, give m <= 2^53, and whose fraction
// has at most 22 digits: m and its power of ten are then both exact,
// so m / 10^frac is one correctly rounded division, the value
// strconv.ParseFloat returns (it is that function's own first case).
// Shortest float64 renderings of up to 16 digits mostly qualify. ok is
// false for everything else.
func exactDecimal(lit []byte) (float64, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	var m uint64
	digits, frac := 0, -1
	for _, c := range lit {
		switch {
		case c == '.':
			frac = 0
			continue
		case c < '0' || c > '9' || digits == 19:
			return 0, false
		}
		m = m*10 + uint64(c-'0')
		digits++
		if frac >= 0 {
			frac++
		}
	}
	if m > 1<<53 || frac >= len(pow10) {
		return 0, false
	}
	v := float64(m)
	if frac > 0 {
		v /= pow10[frac]
	}
	if neg {
		v = -v
	}
	return v, true
}

// Int reads an integral literal into an int.
func (s *Scanner) Int() (int, bool) {
	v, ok := s.integer(strconv.IntSize)
	return int(v), ok
}

// Int64 reads an integral literal into an int64.
func (s *Scanner) Int64() (int64, bool) { return s.integer(64) }

func (s *Scanner) integer(bits int) (int64, bool) {
	lit, integral, ok := s.number()
	if !ok || !integral {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, bits)
	return v, err == nil
}

// scratch collects an array's values before they are copied, at their
// exact count, into the slices a decode returns.
type scratch struct {
	floats []float64
	ints   []int
	ends   []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.floats, sc.ints, sc.ends = sc.floats[:0], sc.ints[:0], sc.ends[:0]
	return sc
}

// release returns sc to the pool unless a huge array grew it.
func (sc *scratch) release() {
	if 8*max(cap(sc.floats), cap(sc.ints), cap(sc.ends)) <= maxPooledBuffer {
		scratchPool.Put(sc)
	}
}

// Floats reads an array of numbers into a new slice (non-nil when
// empty, as encoding/json decodes []).
func (s *Scanner) Floats() ([]float64, bool) {
	sc := getScratch()
	defer sc.release()
	if !s.floats(sc) {
		return nil, false
	}
	return append(make([]float64, 0, len(sc.floats)), sc.floats...), true
}

// Ints reads an array of integral numbers into a new slice.
func (s *Scanner) Ints() ([]int, bool) {
	sc := getScratch()
	defer sc.release()
	if !s.ints(sc) {
		return nil, false
	}
	return append(make([]int, 0, len(sc.ints)), sc.ints...), true
}

// FloatLists reads an array of number arrays. The inner lists are
// carved, capacity-limited, from one slab.
func (s *Scanner) FloatLists() ([][]float64, bool) {
	sc := getScratch()
	defer sc.release()
	if !s.array(func() bool { ok := s.floats(sc); sc.ends = append(sc.ends, len(sc.floats)); return ok }) {
		return nil, false
	}
	slab := append(make([]float64, 0, len(sc.floats)), sc.floats...)
	out := make([][]float64, len(sc.ends))
	start := 0
	for i, end := range sc.ends {
		out[i], start = slab[start:end:end], end
	}
	return out, true
}

// IntLists reads an array of integral-number arrays, one slab for all
// inner lists.
func (s *Scanner) IntLists() ([][]int, bool) {
	sc := getScratch()
	defer sc.release()
	if !s.array(func() bool { ok := s.ints(sc); sc.ends = append(sc.ends, len(sc.ints)); return ok }) {
		return nil, false
	}
	slab := append(make([]int, 0, len(sc.ints)), sc.ints...)
	out := make([][]int, len(sc.ends))
	start := 0
	for i, end := range sc.ends {
		out[i], start = slab[start:end:end], end
	}
	return out, true
}

// floats reads an array of numbers onto sc.floats.
func (s *Scanner) floats(sc *scratch) bool {
	return s.array(func() bool {
		v, ok := s.Float()
		sc.floats = append(sc.floats, v)
		return ok
	})
}

// ints reads an array of integral numbers onto sc.ints.
func (s *Scanner) ints(sc *scratch) bool {
	return s.array(func() bool {
		v, ok := s.Int()
		sc.ints = append(sc.ints, v)
		return ok
	})
}

// array reads '[' elem (',' elem)* ']' or '[]'.
func (s *Scanner) array(elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.eat(']') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// Raw skips one object or array and returns its bytes, aliasing the
// input, without validating them: the caller hands the span to
// encoding/json, which does. Any other value fails, and takes the
// caller's encoding/json path.
func (s *Scanner) Raw() ([]byte, bool) {
	start := s.i
	if c := s.peek(); c != '{' && c != '[' {
		return nil, false
	}
	for depth := 0; s.i < len(s.b); {
		switch s.b[s.i] {
		case '"':
			if !s.skipString() {
				return nil, false
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		}
		s.i++
		if depth == 0 {
			return s.b[start:s.i], true
		}
	}
	return nil, false
}

// skipString moves past the string starting at s.i, escapes included.
func (s *Scanner) skipString() bool {
	for s.i++; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case '\\':
			s.i++
		case '"':
			s.i++
			return true
		}
	}
	return false
}
