// Package jsonscan is the hand-written half of this repository's JSON
// codecs: a scanner that accepts one canonical subset of JSON without
// reflection or allocation, and append-style encoders that write the
// bytes encoding/json would. internal/server reads and writes its
// per-transaction wire frames with it. internal/model takes only
// IsSpace: a trace line has one canonical spelling, which its reader
// matches byte for byte without a scanner.
//
// The scanner only ever accepts. Objects with known, exactly spelled,
// unrepeated keys; plain integers of at most 18 digits; true and
// false; strings of unescaped ASCII; JSON whitespace anywhere between
// tokens. Everything else — escapes, non-ASCII text, null, fractions
// and exponents, unknown or repeated or case-folded keys, malformed
// input — makes a method report false, and the caller hands those
// bytes to encoding/json, which stays the one definition of what is
// rejected, with which message, and of what the odd input decodes to.
package jsonscan

import "encoding/json"

// Scanner walks Buf from Pos. Every method skips leading whitespace,
// and on success leaves Pos after what it consumed. After a method
// reported false the value is not in the accepted subset of what Buf
// holds, which is always a whole document.
type Scanner struct {
	Buf []byte
	Pos int
}

// IsSpace reports whether c is JSON whitespace.
func IsSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\r' || c == '\t' }

func (s *Scanner) space() {
	for s.Pos < len(s.Buf) && IsSpace(s.Buf[s.Pos]) {
		s.Pos++
	}
}

// Byte consumes the single byte c.
func (s *Scanner) Byte(c byte) bool {
	s.space()
	if s.Pos < len(s.Buf) && s.Buf[s.Pos] == c {
		s.Pos++
		return true
	}
	return false
}

// maxDigits keeps every accepted integer inside int64 without an
// overflow check; longer ones are encoding/json's to judge.
const maxDigits = 18

// Int64 consumes a plain integer into dst: an optional minus, then 0
// or a digit string without a leading zero. The byte after it must be
// there to show the number ended (a fraction or an exponent is not
// accepted). Like every method with a destination, it writes dst only
// when it reports true.
func (s *Scanner) Int64(dst *int64) bool {
	s.space()
	neg := s.Pos < len(s.Buf) && s.Buf[s.Pos] == '-'
	if neg {
		s.Pos++
	}
	start := s.Pos
	var v int64
	for s.Pos < len(s.Buf) && s.Buf[s.Pos]-'0' <= 9 {
		v = v*10 + int64(s.Buf[s.Pos]-'0')
		s.Pos++
		if s.Pos-start > maxDigits {
			s.Pos = start
			return false
		}
	}
	if s.Pos == len(s.Buf) {
		return false
	}
	switch c := s.Buf[s.Pos]; {
	case s.Pos == start,
		c == '.' || c == 'e' || c == 'E',
		s.Buf[start] == '0' && s.Pos-start > 1:
		s.Pos = start
		return false
	}
	if neg {
		v = -v
	}
	*dst = v
	return true
}

// Int is Int64 for a Go int: where int is 32 bits wide, what does not
// fit is not accepted.
func (s *Scanner) Int(dst *int) bool {
	var v int64
	if !s.Int64(&v) || int64(int(v)) != v {
		return false
	}
	*dst = int(v)
	return true
}

// Bool consumes true or false into dst.
func (s *Scanner) Bool(dst *bool) bool {
	s.space()
	switch {
	case s.literal("true"):
		*dst = true
	case s.literal("false"):
		*dst = false
	default:
		return false
	}
	return true
}

// literal consumes lit.
func (s *Scanner) literal(lit string) bool {
	if rest := s.Buf[s.Pos:]; len(rest) < len(lit) || string(rest[:len(lit)]) != lit {
		return false
	}
	s.Pos += len(lit)
	return true
}

// Str consumes a string of unescaped ASCII and returns the bytes
// between its quotes, which alias Buf.
func (s *Scanner) Str() ([]byte, bool) {
	if !s.Byte('"') {
		return nil, false
	}
	start := s.Pos
	for s.Pos < len(s.Buf) {
		switch c := s.Buf[s.Pos]; {
		case c == '"':
			s.Pos++
			return s.Buf[start : s.Pos-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
		s.Pos++
	}
	return nil, false
}

// String consumes a string as Str does into dst: as the known string
// it equals, when there is one — which allocates nothing — or else as
// a copy.
func (s *Scanner) String(dst *string, known ...string) bool {
	b, ok := s.Str()
	if !ok {
		return false
	}
	for _, k := range known {
		if string(b) == k {
			*dst = k
			return true
		}
	}
	*dst = string(b)
	return true
}

// Object consumes an object whose keys all come from keys (at most 32)
// and appear at most once each, in any order. For each member it calls
// field with the key's index; field consumes the value. seen has bit i
// set when keys[i] was present.
func (s *Scanner) Object(keys []string, field func(i int) bool) (seen uint32, ok bool) {
	if !s.Byte('{') {
		return 0, false
	}
	if s.Byte('}') {
		return 0, true
	}
	for {
		key, ok := s.Str()
		if !ok || !s.Byte(':') {
			return seen, false
		}
		i := 0
		for i < len(keys) && string(key) != keys[i] {
			i++
		}
		if i == len(keys) || seen&(1<<i) != 0 {
			return seen, false
		}
		seen |= 1 << i
		if !field(i) {
			return seen, false
		}
		if s.Byte('}') {
			return seen, true
		}
		if !s.Byte(',') {
			return seen, false
		}
	}
}

// Array consumes an array, calling elem to consume each element.
func (s *Scanner) Array(elem func() bool) bool {
	if !s.Byte('[') {
		return false
	}
	if s.Byte(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.Byte(']') {
			return true
		}
		if !s.Byte(',') {
			return false
		}
	}
}

// Count returns how many times c occurs before the next end byte: a
// capacity hint for the array the scanner is about to enter.
func (s *Scanner) Count(c, end byte) int {
	n := 0
	for _, b := range s.Buf[s.Pos:] {
		if b == end {
			break
		}
		if b == c {
			n++
		}
	}
	return n
}

// AppendString appends s as encoding/json writes a string: quoted,
// and when anything in it needs escaping — quotes, backslashes,
// control characters, the HTML-sensitive <, > and &, U+2028/U+2029,
// invalid UTF-8 — by encoding/json itself, so the bytes are its own.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			b, err := json.Marshal(s)
			if err != nil { // a string always marshals
				panic(err)
			}
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
