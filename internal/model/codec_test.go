package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"unsafe"
)

// referenceReadTrace is ReadTrace as it was before TraceReader: one
// json.Decoder over the whole input, every value through
// Event.UnmarshalJSON. The edge-case table and FuzzReadTrace hold the
// matching reader to it.
func referenceReadTrace(r io.Reader) (History, error) {
	dec := json.NewDecoder(r)
	var h History
	for i := 0; ; i++ {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return h, nil
		} else if err != nil {
			return nil, &decodeError{i, err}
		}
		h = append(h, e)
	}
}

// readTraceBuffered is ReadTrace over a TraceReader whose refill
// buffer holds size bytes, so short inputs cross refills, outgrow the
// buffer and leave read-ahead behind a fallback.
func readTraceBuffered(r io.Reader, size int) (History, error) {
	tr := &TraceReader{src: r, buf: make([]byte, size)}
	var h History
	for {
		e, err := tr.Next()
		if err == io.EOF {
			return h, nil
		} else if err != nil {
			return nil, &decodeError{len(h), err}
		}
		h = append(h, e)
	}
}

// checkAgainstReference decodes in with ReadTrace — whole, one byte
// per Read, and through small refill buffers — and requires each to
// agree with referenceReadTrace on the history and on the error text.
func checkAgainstReference(t *testing.T, in []byte) (History, error) {
	t.Helper()
	want, wantErr := referenceReadTrace(bytes.NewReader(in))
	check := func(how string, got History, err error) {
		t.Helper()
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, reference %v (input %q)", how, err, wantErr, in)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d events, reference %d (input %q)", how, len(got), len(want), in)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: event %d is %v, reference %v (input %q)", how, i, got[i], want[i], in)
			}
		}
	}
	got, err := ReadTrace(bytes.NewReader(in))
	check("ReadTrace", got, err)
	got, err = ReadTrace(iotest.OneByteReader(bytes.NewReader(in)))
	check("one byte per Read", got, err)
	for _, size := range []int{1, 7, 48, 600} {
		got, err = readTraceBuffered(bytes.NewReader(in), size)
		check(fmt.Sprintf("%d-byte buffer", size), got, err)
	}
	return want, wantErr
}

func TestEventJSONRoundTrip(t *testing.T) {
	events := []Event{
		Read(1, 0),
		Write(2, 3, -5),
		TryCommit(3),
		ValueResp(1, 42),
		OK(2),
		Commit(1),
		Abort(3),
	}
	for _, e := range events {
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		var back Event
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if back != e {
			t.Errorf("round trip %v -> %s -> %v", e, data, back)
		}
	}
}

func TestEventJSONEncoding(t *testing.T) {
	data, err := json.Marshal(Write(2, 1, 7))
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"proc":2`, `"kind":"write"`, `"var":1`, `"val":7`} {
		if !strings.Contains(s, want) {
			t.Errorf("encoding %s missing %s", s, want)
		}
	}
	// Responses without payloads omit var/val.
	data, _ = json.Marshal(Commit(1))
	if strings.Contains(string(data), "var") || strings.Contains(string(data), "val") {
		t.Errorf("commit encoding should omit var/val: %s", data)
	}
}

// traceCases are the reader's edge cases: inputs the matcher takes
// itself, inputs it must leave to encoding/json, and inputs nobody
// accepts. want is nil where err (a substring of the error) is set.
var traceCases = []struct {
	name string
	in   string
	want History
	err  string
}{
	{name: "two events across a refill", // the 48-byte buffer ends inside the second
		in:   `{"proc":1,"kind":"read","var":0}` + "\n" + `{"proc":1,"kind":"val","val":7}` + "\n",
		want: History{Read(1, 0), ValueResp(1, 7)}},
	{name: "value longer than the buffer", // and than json.Decoder's first 512-byte read
		in:   `{"proc":1,` + strings.Repeat(" ", 700) + `"kind":"C"}` + "\n" + `{"proc":2,"kind":"A"}` + "\n",
		want: History{Commit(1), Abort(2)}},
	{name: "CRLF and blank lines",
		in:   "\r\n" + `{"proc":1,"kind":"tryC"}` + "\r\n\r\n\n" + `{"proc":1,"kind":"C"}` + "\r\n\r\n",
		want: History{TryCommit(1), Commit(1)}},
	{name: "several events on one line",
		in:   `{"proc":1,"kind":"write","var":2,"val":-5} {"proc":1,"kind":"ok"}{"proc":1,"kind":"tryC"}` + "\t\n",
		want: History{Write(1, 2, -5), OK(1), TryCommit(1)}},
	{name: "pretty-printed event",
		in:   "{\n  \"kind\" : \"write\",\n  \"val\" : 9,\n  \"var\" : 3,\n  \"proc\" : 4\n}\n",
		want: History{Write(4, 3, 9)}},
	{name: "no trailing newline",
		in:   `{"proc":1,"kind":"C"}` + "\n" + `{"proc":2,"kind":"C"}`,
		want: History{Commit(1), Commit(2)}},
	{name: "empty input", in: ""},
	{name: "whitespace only", in: " \n\t\r\n"},
	{name: "minus zero",
		in:   `{"proc":1,"kind":"val","val":-0}`,
		want: History{ValueResp(1, 0)}},
	{name: "int64 bounds",
		in:   `{"proc":1,"kind":"val","val":9223372036854775807}{"proc":1,"kind":"val","val":-9223372036854775808}`,
		want: History{ValueResp(1, 9223372036854775807), ValueResp(1, -9223372036854775808)}},
	{name: "one past int64", in: `{"proc":1,"kind":"val","val":9223372036854775808}`, err: "decode event 0"},
	{name: "eighteen digits",
		in:   `{"proc":1,"kind":"val","val":-999999999999999999}`,
		want: History{ValueResp(1, -999999999999999999)}},
	{name: "escaped key",
		in:   `{"pr\u006fc":1,"kind":"C"}`,
		want: History{Commit(1)}},
	{name: "escaped kind",
		in:   `{"proc":1,"kind":"\u0043"}`,
		want: History{Commit(1)}},
	{name: "case-folded keys",
		in:   `{"PROC":1,"Kind":"read","VAR":6}`,
		want: History{Read(1, 6)}},
	{name: "duplicate key", // encoding/json keeps the last
		in:   `{"proc":1,"proc":2,"kind":"C"}`,
		want: History{Commit(2)}},
	{name: "unknown key",
		in:   `{"proc":1,"ts":{"s":[1,2]},"kind":"C"}`,
		want: History{Commit(1)}},
	{name: "null member",
		in:   `{"proc":1,"kind":"tryC","var":null}`,
		want: History{TryCommit(1)}},
	{name: "members the kind does not use",
		in:   `{"proc":3,"kind":"A","var":8,"val":9}`,
		want: History{Abort(3)}},
	{name: "exponent", in: `{"proc":1e0,"kind":"C"}`, err: "decode event 0"},
	{name: "fraction", in: `{"proc":1,"kind":"read","var":0.0}`, err: "decode event 0"},
	{name: "leading zero", in: `{"proc":01,"kind":"C"}`, err: "decode event 0"},
	{name: "kind in the wrong case", in: `{"proc":1,"kind":"c"}`, err: `unknown event kind "c"`},
	{name: "truncated", in: `{"proc":1,"kind":"C"}` + "\n" + `{"proc":1,"ki`, err: "decode event 1: unexpected EOF"},
	{name: "valid prefix then garbage", // the events before the bad one are not returned
		in:  `{"proc":1,"kind":"tryC"}` + "\n" + `{"proc":1,"kind":"C"}` + "\n" + `not json` + "\n",
		err: "decode event 2"},
	{name: "comma between events", in: `{"proc":1,"kind":"C"},{"proc":1,"kind":"C"}`, err: "decode event 1"},
	{name: "array of events", in: `[{"proc":1,"kind":"C"}]`, err: "decode event 0"},
}

func TestEventJSONRejectsBad(t *testing.T) {
	bad := []string{
		`{"proc":1,"kind":"nope"}`,
		`{"proc":0,"kind":"read","var":0}`,
		`{"proc":1,"kind":"read"}`,          // missing var
		`{"proc":1,"kind":"write","var":0}`, // missing val
		`{"proc":1,"kind":"val"}`,           // missing val
		`[1,2,3]`,
	}
	for _, s := range bad {
		var e Event
		if err := json.Unmarshal([]byte(s), &e); err == nil {
			t.Errorf("unmarshal %s should fail", s)
		}
		// The reader rejects it too, in UnmarshalJSON's words.
		if _, err := checkAgainstReference(t, []byte(s)); err == nil {
			t.Errorf("ReadTrace(%s) should fail", s)
		}
	}
	for _, c := range traceCases {
		t.Run(c.name, func(t *testing.T) {
			got, err := checkAgainstReference(t, []byte(c.in))
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) || got != nil {
					t.Fatalf("got %v, %v; want nil and an error containing %q", got, err, c.err)
				}
				return
			}
			if err != nil || fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Fatalf("got %v, %v; want %v", got, err, c.want)
			}
		})
	}
}

// A trace on a pipe is handed out as it arrives: event i comes back
// before the bytes of event i+1 have been asked for.
func TestTraceReaderDoesNotReadAhead(t *testing.T) {
	pr, pw := io.Pipe()
	tr := NewTraceReader(pr)
	for i, line := range []string{
		`{"proc":1,"kind":"tryC"}` + "\n",
		`{"PROC":1,"kind":"C"}`, // the fallback's decoder must not wait either
		` {"proc":2,"kind":"A"}`,
	} {
		go func() { _, _ = pw.Write([]byte(line)) }()
		e, err := tr.Next()
		if err != nil || e.Proc == 0 {
			t.Fatalf("event %d: %v, %v", i, e, err)
		}
	}
	pw.Close()
	if _, err := tr.Next(); err != io.EOF {
		t.Fatalf("after the last event: %v, want io.EOF", err)
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Fatalf("io.EOF must repeat, got %v", err)
	}
}

func TestEventMarshalRejectsUnknownKind(t *testing.T) {
	if _, err := json.Marshal(Event{Proc: 1, Kind: Kind(99)}); err == nil {
		t.Error("marshaling an unknown kind must fail")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	h := NewBuilder().
		Read(1, 0, 0).Write(1, 0, 5).Commit(1).
		Read(2, 0, 5).CommitAbort(2).
		Raw(Read(3, 1)).
		History()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, h); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(h) {
		t.Fatalf("round trip length %d, want %d", len(back), len(h))
	}
	for i := range h {
		if back[i] != h[i] {
			t.Errorf("event %d: %v != %v", i, back[i], h[i])
		}
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	h := NewBuilder().Read(1, 0, 0).Commit(1).History()
	if err := SaveTrace(path, h); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equivalent(h) || len(back) != len(h) {
		t.Errorf("file round trip mismatch: %v vs %v", back, h)
	}
}

func TestLoadTraceMissingFile(t *testing.T) {
	if _, err := LoadTrace(filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Error("missing file must error")
	}
}

func TestReadTraceGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage must error")
	}
}

// TestReadTraceErrorText pins the whole message ReadTrace returns: the
// package is named once, whether the cause is UnmarshalJSON's (which
// names it too) or the JSON decoder's, and the cause still unwraps.
func TestReadTraceErrorText(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"var past MaxTVar", `{"proc":1,"kind":"write","var":2147483648,"val":5}`,
			`model: decode event 0: event member "var" is 2147483648, outside 0..MaxTVar (2147483647)`},
		{"unknown kind", `{"proc":1,"kind":"C"}` + "\n" + `{"proc":1,"kind":"?"}`,
			`model: decode event 1: unknown event kind "?"`},
		{"missing member", `{"proc":2,"kind":"read"}`, `model: decode event 0: read event missing var`},
		{"truncated", `{"proc":1,"ki`, `model: decode event 0: unexpected EOF`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadTrace(strings.NewReader(c.in))
			if err == nil || err.Error() != c.want {
				t.Fatalf("got %v, want %q", err, c.want)
			}
			if errors.Unwrap(err) == nil {
				t.Error("the cause does not unwrap")
			}
		})
	}
}

// Property: every well-formed history round-trips through the codec.
func TestTraceRoundTripProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		h := wellFormedHistory(raw)
		var buf bytes.Buffer
		if err := WriteTrace(&buf, h); err != nil {
			return false
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		if len(back) != len(h) {
			return false
		}
		for i := range h {
			if back[i] != h[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The fixed costs of a trace — the reader's buffer, the History — are
// paid once; an event in canonical form costs nothing more, read or
// written.
func TestAllocBudgetPerDecodedEvent(t *testing.T) {
	const perRun, runs = 500, 50
	events := []Event{Read(1, 3), ValueResp(1, -42), Write(12, 7, 1<<40), OK(12), TryCommit(1), Commit(1), Abort(12)}
	h := make(History, 0, perRun*(runs+2))
	for len(h) < cap(h) {
		h = append(h, events[len(h)%len(events)])
	}
	var trace bytes.Buffer
	if err := WriteTrace(&trace, h); err != nil {
		t.Fatal(err)
	}
	tr := NewTraceReader(&trace)
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		for i := 0; i < perRun; i++ {
			e, err := tr.Next()
			if err != nil || e != h[next] {
				t.Fatalf("event %d: %v, %v; want %v", next, e, err, h[next])
			}
			next++
		}
	}); n != 0 {
		t.Errorf("TraceReader.Next: %.3f allocations per %d events, want 0", n, perRun)
	}
	line := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(runs, func() {
		for _, e := range events {
			var err error
			if line, err = e.AppendJSON(line[:0]); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("AppendJSON into a reused buffer: %.3f allocations per %d events, want 0", n, len(events))
	}
}

// FuzzReadTrace holds the matching reader to the json.Decoder loop it
// replaced, on arbitrary bytes: same success, same history, same
// failing event and error text, whatever the refill buffer's size.
// The seeds, one per corner of the grammar, are under testdata/fuzz.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
	})
}

// idBoundCases are the edges of the identifier ranges: the largest
// Proc and TVar decode, one past them and a negative var are refused
// in UnmarshalJSON's words, naming the member and the value, on both
// the matching path and the reference path. The FuzzReadTrace seeds
// under testdata/fuzz repeat them.
var idBoundCases = []struct {
	name string
	in   string
	want History
	err  string
}{
	{name: "largest proc", in: `{"proc":32767,"kind":"C"}`, want: History{Commit(MaxProc)}},
	{name: "proc past MaxProc", in: `{"proc":32768,"kind":"C"}`, err: `member "proc" is 32768`},
	{name: "largest var", in: `{"proc":1,"kind":"read","var":2147483647}`, want: History{Read(1, MaxTVar)}},
	{name: "var past MaxTVar", in: `{"proc":1,"kind":"write","var":2147483648,"val":5}`, err: `member "var" is 2147483648`},
	{name: "var that would wrap to 0", in: `{"proc":1,"kind":"read","var":4294967296}`, err: `member "var" is 4294967296`},
	{name: "negative var", in: `{"proc":1,"kind":"read","var":-1}`, err: `member "var" is -1`},
	{name: "negative var on a kind without one", in: `{"proc":1,"kind":"tryC","var":-1}`, want: History{TryCommit(1)}},
}

func TestEventIDBounds(t *testing.T) {
	for _, c := range idBoundCases {
		t.Run(c.name, func(t *testing.T) {
			got, err := checkAgainstReference(t, []byte(c.in))
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("got %v, %v; want an error containing %q", got, err, c.err)
				}
				return
			}
			if err != nil || fmt.Sprint(got) != fmt.Sprint(c.want) || got[0] != c.want[0] {
				t.Fatalf("got %v, %v; want %v", got, err, c.want)
			}
		})
	}
}

// ReadTrace over an in-memory canonical trace reserves exactly its
// events: the History is the one allocation that grows with the trace,
// at 16 bytes an event, beside the reader's fixed buffer. An input of
// nothing but '{' reserves no more than its length allows.
func TestAllocBudgetPerDecodedTrace(t *testing.T) {
	events := []Event{Read(1, 3), ValueResp(1, -42), Write(12, 7, 1<<40), OK(12), TryCommit(1), Commit(1), Abort(12)}
	want := make(History, 10_000)
	for i := range want {
		want[i] = events[i%len(events)]
	}
	var trace bytes.Buffer
	if err := WriteTrace(&trace, want); err != nil {
		t.Fatal(err)
	}
	// TotalAlloc counts every goroutine's allocations, so the least of a
	// few decodes is ReadTrace's own.
	var (
		h     History
		err   error
		alloc uint64 = math.MaxUint64
	)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		h, err = ReadTrace(bytes.NewReader(trace.Bytes()))
		runtime.ReadMemStats(&after)
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	if err != nil || len(h) != len(want) {
		t.Fatalf("ReadTrace: %d events, %v; want %d", len(h), err, len(want))
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("event %d is %v, want %v", i, h[i], want[i])
		}
	}
	if cap(h) != len(h) {
		t.Errorf("cap(h) = %d for %d events, want them equal", cap(h), len(h))
	}
	// The runtime hands out an allocation this large in whole 8 KiB
	// pages, so the History's share is rounded up to one.
	const page = 8 << 10
	history := (uint64(len(want))*uint64(unsafe.Sizeof(Event{})) + page - 1) / page * page
	budget := history + traceBufSize + 1<<10
	if alloc > budget {
		t.Errorf("ReadTrace allocated %d B for %d events, budget %d B", alloc, len(want), budget)
	}

	// A file is counted the same way, from its offset: a trace
	// redirected to stdin part-read is sized by what is left.
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, trace.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if h, err = LoadTrace(path); err != nil || len(h) != len(want) || cap(h) != len(h) {
		t.Errorf("LoadTrace: %d events, cap %d, %v; want %d and cap == len", len(h), cap(h), err, len(want))
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	skip := bytes.IndexByte(trace.Bytes(), '\n') + 1
	if _, err := f.Seek(int64(skip), io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if h, err = ReadTrace(f); err != nil || len(h) != len(want)-1 || cap(h) != len(h) {
		t.Errorf("ReadTrace after one line: %d events, cap %d, %v; want %d and cap == len", len(h), cap(h), err, len(want)-1)
	}

	braces := bytes.Repeat([]byte("{"), 100_000)
	if n, bound := eventBound(bytes.NewReader(braces), make([]byte, traceBufSize)), int64(len(braces)/minEventLine); n > bound {
		t.Errorf("a %d-byte input of '{' reserves %d events, more than size/minEventLine = %d", len(braces), n, bound)
	}
}

// matchCases are the exact-line matcher's edges. An accepted row is a
// line AppendJSON writes, matched whole to the event UnmarshalJSON
// decodes; every proper prefix of it is short, never declined. A
// declined row is one AppendJSON never writes, so the matcher leaves it
// to encoding/json, whatever that makes of it. The declined rows are
// FuzzReadTrace seeds under testdata/fuzz (named declined-*).
var matchCases = []struct {
	name   string
	in     string
	accept bool
}{
	{name: "read at the low edges", in: `{"proc":1,"kind":"read","var":0}`, accept: true},
	{name: "read at the high edges", in: `{"proc":32767,"kind":"read","var":2147483647}`, accept: true},
	{name: "write at the low edges", in: `{"proc":1,"kind":"write","var":0,"val":-999999999999999999}`, accept: true},
	{name: "write at the high edges", in: `{"proc":32767,"kind":"write","var":2147483647,"val":999999999999999999}`, accept: true},
	{name: "write of zero", in: `{"proc":9,"kind":"write","var":10,"val":0}`, accept: true},
	{name: "tryC", in: `{"proc":1,"kind":"tryC"}`, accept: true},
	{name: "tryC at MaxProc", in: `{"proc":32767,"kind":"tryC"}`, accept: true},
	{name: "negative value", in: `{"proc":1,"kind":"val","val":-1}`, accept: true},
	{name: "zero value", in: `{"proc":1,"kind":"val","val":0}`, accept: true},
	{name: "eighteen-digit value", in: `{"proc":32767,"kind":"val","val":123456789012345678}`, accept: true},
	{name: "ok", in: `{"proc":1,"kind":"ok"}`, accept: true},
	{name: "ok at MaxProc", in: `{"proc":32767,"kind":"ok"}`, accept: true},
	{name: "commit", in: `{"proc":1,"kind":"C"}`, accept: true},
	{name: "commit at MaxProc", in: `{"proc":32767,"kind":"C"}`, accept: true},
	{name: "abort", in: `{"proc":1,"kind":"A"}`, accept: true},
	{name: "abort at MaxProc", in: `{"proc":32767,"kind":"A"}`, accept: true},

	{name: "leading zero in proc", in: `{"proc":01,"kind":"C"}`},
	{name: "leading zero in var", in: `{"proc":1,"kind":"read","var":00}`},
	{name: "leading zero in val", in: `{"proc":1,"kind":"val","val":-07}`},
	{name: "proc 0", in: `{"proc":0,"kind":"C"}`},
	{name: "proc 32768", in: `{"proc":32768,"kind":"C"}`},
	{name: "var 2^31", in: `{"proc":1,"kind":"read","var":2147483648}`},
	{name: "minus zero", in: `{"proc":1,"kind":"write","var":3,"val":-0}`},
	{name: "members reordered", in: `{"kind":"C","proc":1}`},
	{name: "var and val reordered", in: `{"proc":1,"kind":"write","val":5,"var":3}`},
	{name: "space after a colon", in: `{"proc": 1,"kind":"C"}`},
	{name: "kind Read", in: `{"proc":1,"kind":"Read","var":0}`},
	{name: "escaped quote in the kind", in: `{"proc":1,"kind":"C\"","var":0}`},
	{name: "extra member", in: `{"proc":1,"kind":"C","val":4}`},
	{name: "missing member", in: `{"proc":1,"kind":"write","var":3}`},
}

func TestMatchEvent(t *testing.T) {
	for _, c := range matchCases {
		t.Run(c.name, func(t *testing.T) {
			ref, refErr := checkAgainstReference(t, []byte(c.in))
			got, n := matchEvent([]byte(c.in))
			if !c.accept {
				if n != declined {
					t.Fatalf("matchEvent = %v, %d; want declined", got, n)
				}
				return
			}
			var want Event
			if err := want.UnmarshalJSON([]byte(c.in)); err != nil || refErr != nil || len(ref) != 1 || ref[0] != want {
				t.Fatalf("UnmarshalJSON: %v, %v; reference %v, %v", want, err, ref, refErr)
			}
			if got != want || n != len(c.in) {
				t.Fatalf("matchEvent = %v, %d; want %v, %d", got, n, want, len(c.in))
			}
			line, _ := want.AppendJSON(nil)
			if string(line) != c.in+"\n" {
				t.Fatalf("AppendJSON writes %q, not the row", line)
			}
			for k := range len(c.in) {
				if _, n := matchEvent([]byte(c.in[:k])); n != short {
					t.Fatalf("prefix %q: %d, want short", c.in[:k], n)
				}
			}
		})
	}
}

// A 19-digit value, which AppendJSON writes, may be matched or left to
// encoding/json; either way it decodes as the reference does. So do two
// objects with no separator, and a line cut at every point of a small
// refill buffer, each cut matched again after the refill: no value of
// that trace reaches encoding/json, which would allocate.
func TestMatchEventEdges(t *testing.T) {
	for _, in := range []string{
		`{"proc":1,"kind":"val","val":-9223372036854775808}`,
		`{"proc":1,"kind":"write","var":0,"val":1234567890123456789}`,
		`{"proc":1,"kind":"C"}{"proc":2,"kind":"write","var":1,"val":-3}`,
	} {
		checkAgainstReference(t, []byte(in))
	}
	if e, n := matchEvent([]byte(`{"proc":1,"kind":"C"}{"proc":2,"kind":"A"}`)); e != Commit(1) || n != len(`{"proc":1,"kind":"C"}`) {
		t.Fatalf("first of two objects: %v, %d", e, n)
	}

	h := History{Write(3, 12, -40), OK(3), Read(1, 2), ValueResp(1, 7), TryCommit(3), Commit(3), Abort(1)}
	var trace bytes.Buffer
	if err := WriteTrace(&trace, h); err != nil {
		t.Fatal(err)
	}
	longest := len(`{"proc":3,"kind":"write","var":12,"val":-40}` + "\n")
	var src bytes.Reader
	for size := longest; size <= trace.Len(); size++ {
		tr := &TraceReader{buf: make([]byte, size)}
		if n := testing.AllocsPerRun(5, func() {
			src.Reset(trace.Bytes())
			*tr = TraceReader{src: &src, buf: tr.buf}
			for i := 0; ; i++ {
				e, err := tr.Next()
				if err == io.EOF && i == len(h) {
					return
				}
				if err != nil || i >= len(h) || e != h[i] {
					t.Fatalf("%d-byte buffer, event %d: %v, %v", size, i, e, err)
				}
			}
		}); n != 0 {
			t.Errorf("%d-byte buffer: %.1f allocations, want 0 (a cut line went to encoding/json)", size, n)
		}
	}
}

// WriteTrace reserves, in a writer that can grow, exactly the bytes it
// then writes, and writes what AppendJSON does line by line.
func TestWriteTraceReservesExactLength(t *testing.T) {
	h := History{
		Read(1, 0), Read(MaxProc, MaxTVar), Write(12, 7, math.MinInt64), Write(1, 0, math.MaxInt64),
		ValueResp(2, -1), ValueResp(2, 0), ValueResp(2, 10), ValueResp(2, -99), OK(100), TryCommit(1000), Commit(9), Abort(10),
	}
	h = append(h, syntheticHistory(5000)...)
	var want []byte
	for _, e := range h {
		want, _ = e.AppendJSON(want)
	}
	var g growRecorder
	if err := WriteTrace(&g, h); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), want) {
		t.Fatal("WriteTrace wrote other bytes than AppendJSON")
	}
	if g.grown != len(want) {
		t.Errorf("WriteTrace reserved %d bytes for a %d-byte trace", g.grown, len(want))
	}
}

// WriteTrace writes the same bytes whichever writer it is handed: a
// bytes.Buffer, whose free space takes the lines straight in (after
// what it held already), and a plain writer, which gets them through a
// buffer; over a trace of many chunks of either. A writer that fails
// fails the write, naming an event.
func TestWriteTraceEveryWriter(t *testing.T) {
	h := syntheticHistory(20_000)
	want := []byte("held already\n")
	for _, e := range h {
		want, _ = e.AppendJSON(want)
	}
	direct := bytes.NewBufferString("held already\n")
	if err := WriteTrace(direct, h); err != nil || !bytes.Equal(direct.Bytes(), want) {
		t.Errorf("into a bytes.Buffer: %v, or other bytes than AppendJSON's", err)
	}
	var plain bytes.Buffer
	plain.WriteString("held already\n")
	if err := WriteTrace(struct{ io.Writer }{&plain}, h); err != nil || !bytes.Equal(plain.Bytes(), want) {
		t.Errorf("into a plain writer: %v, or other bytes than AppendJSON's", err)
	}
	failing := failAfter{n: 3 * traceBufSize}
	if err := WriteTrace(&failing, h); err == nil || !strings.Contains(err.Error(), "encode event") || !errors.Is(err, errFull) {
		t.Errorf("into a writer that fails: %v", err)
	}
}

// errFull is failAfter's error.
var errFull = errors.New("full")

// failAfter accepts n bytes and then fails.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		return 0, errFull
	}
	f.n -= len(p)
	return len(p), nil
}

// growRecorder is a bytes.Buffer that adds up what it is asked to
// reserve.
type growRecorder struct {
	bytes.Buffer
	grown int
}

func (g *growRecorder) Grow(n int) {
	g.grown += n
	g.Buffer.Grow(n)
}

// syntheticHistory returns n events of five processes, round robin,
// each running transactions of a read, a write and a commit attempt,
// with every kind and values of every width.
func syntheticHistory(n int) History {
	h := make(History, 0, n+8)
	for round := 0; len(h) < n; round++ {
		for p := Proc(1); p <= 5; p++ {
			x, v := TVar(round*7+int(p))%64, Value(round)*Value(p)*valueSpread(round)
			h = append(h, Read(p, x), ValueResp(p, v), Write(p, x, v+1), OK(p), TryCommit(p))
			if round%4 == 3 {
				h = append(h, Abort(p))
			} else {
				h = append(h, Commit(p))
			}
		}
	}
	return h[:n]
}

// valueSpread varies the width of the synthetic values: small for most
// rounds, a few long and negative ones among them.
func valueSpread(round int) Value {
	switch round % 16 {
	case 5:
		return -1
	case 11:
		return 1 << 40
	default:
		return 1
	}
}

// BenchmarkTraceCodec measures the trace codec alone on an 80 000-event
// history of five processes: WriteTrace into a bytes.Buffer (the
// in-memory image a recorder hands to the checker) and into io.Discard,
// and ReadTrace from a bytes.Reader.
func BenchmarkTraceCodec(b *testing.B) {
	h := syntheticHistory(80_000)
	var trace bytes.Buffer
	if err := WriteTrace(&trace, h); err != nil {
		b.Fatal(err)
	}
	perEvent := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(h)), "ns/event")
	}
	b.Run("write/buffer", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var buf bytes.Buffer
			if err := WriteTrace(&buf, h); err != nil {
				b.Fatal(err)
			}
		}
		perEvent(b)
	})
	b.Run("write/discard", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if err := WriteTrace(io.Discard, h); err != nil {
				b.Fatal(err)
			}
		}
		perEvent(b)
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			back, err := ReadTrace(bytes.NewReader(trace.Bytes()))
			if err != nil || len(back) != len(h) {
				b.Fatalf("%d events, %v", len(back), err)
			}
		}
		perEvent(b)
	})
}
