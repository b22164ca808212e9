package jsonscan

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

func TestInt64(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{in: "0,", want: 0, ok: true},
		{in: " \t\r\n-0}", want: 0, ok: true},
		{in: "7]", want: 7, ok: true},
		{in: "-12 ,", want: -12, ok: true},
		{in: "999999999999999999,", want: 999999999999999999, ok: true},
		{in: "-999999999999999999,", want: -999999999999999999, ok: true},
		{in: "1000000000000000000,"}, // 19 digits: encoding/json's to judge
		{in: strconv.FormatInt(math.MinInt64, 10) + ","},
		{in: "01,"},
		{in: "-,"},
		{in: "1.0,"},
		{in: "1e2,"},
		{in: "1E2,"},
		{in: "null,"},
		{in: `"1",`},
		{in: ""},
		{in: "-"},
		{in: "12"}, // nothing shows the number ended
	} {
		s := Scanner{Buf: []byte(c.in)}
		got := int64(-77)
		ok := s.Int64(&got)
		if ok != c.ok || (ok && got != c.want) || (!ok && got != -77) {
			t.Errorf("Int64(%q) = %d, %v; want %d, %v (and the destination untouched on refusal)", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestStringAndBool(t *testing.T) {
	for _, c := range []struct {
		in   string
		want string
		ok   bool
	}{
		{in: `"read"`, want: "read", ok: true},
		{in: ` "" `, want: "", ok: true},
		{in: `"a b~` + "\x7f" + `"`, want: "a b~\x7f", ok: true},
		{in: `"re\u0061d"`},
		{in: `"a\"b"`},
		{in: "\"a\tb\""},
		{in: "\"caf\xc3\xa9\""}, // not ASCII: encoding/json checks the UTF-8
		{in: `read`},
		{in: `"rea`},
		{in: ` `},
	} {
		s := Scanner{Buf: []byte(c.in)}
		got := "untouched"
		ok := s.String(&got, "write", "read")
		if ok != c.ok || (ok && got != c.want) || (!ok && got != "untouched") {
			t.Errorf("String(%q) = %q, %v; want %q, %v", c.in, got, ok, c.want, c.ok)
		}
	}
	for in, want := range map[string][2]bool{ // value, ok
		"true":   {true, true},
		" false": {false, true},
		"tru":    {false, false},
		"f":      {false, false},
		"True":   {false, false},
		"nul":    {false, false},
	} {
		s := Scanner{Buf: []byte(in)}
		var got bool
		if ok := s.Bool(&got); ok != want[1] || got != want[0] {
			t.Errorf("Bool(%q) = %v, %v; want %v", in, got, ok, want)
		}
	}
}

func TestObject(t *testing.T) {
	keys := []string{"a", "b", "c"}
	for _, c := range []struct {
		in   string
		seen uint32
		ok   bool
	}{
		{in: `{}`, seen: 0, ok: true},
		{in: ` { "c" : 3 , "a" : 1 } x`, seen: 0b101, ok: true},
		{in: `{"a":1,"b":2,"c":3}`, seen: 0b111, ok: true},
		{in: `{"a":1,"a":2}`}, // repeated
		{in: `{"a":1,"d":2}`}, // unknown
		{in: `{"A":1}`},       // case-folded
		{in: `{"\u0061":1}`},  // escaped
		{in: `{"a":1,}`},      // malformed
		{in: `{"a":1 "b":2}`}, // malformed
		{in: `{"a":null}`},    // not in the subset
		{in: `[1]`},           // not an object
		{in: `{"a":1,"b"`},
		{in: `{"a":1,"b":`},
		{in: `{"a":1`},
		{in: `{`},
	} {
		s := Scanner{Buf: []byte(c.in)}
		seen, ok := s.Object(keys, func(int) bool {
			var v int
			return s.Int(&v)
		})
		if ok != c.ok || (ok && seen != c.seen) {
			t.Errorf("Object(%q) = %03b, %v; want %03b, %v", c.in, seen, ok, c.seen, c.ok)
		}
	}
}

// Every string comes out as encoding/json writes it, whichever side of
// the fast path it falls on.
func TestAppendStringIsEncodingJSONs(t *testing.T) {
	cases := []string{"", "read", "a b", `q"q`, `b\b`, "<script>&amp;", "café", "\u2028\u2029", "bad\xffutf8", "\x00\x1f\x7f"}
	for c := 0; c < 256; c++ {
		cases = append(cases, "x"+string([]byte{byte(c)})+"y")
	}
	for _, in := range cases {
		want, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("k:"), in); string(got) != "k:"+string(want) {
			t.Errorf("AppendString(%q) = %s, want k:%s", in, got, want)
		}
	}
}
