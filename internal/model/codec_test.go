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
// scanning reader to it.
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

// traceCases are the reader's edge cases: inputs the scanner takes
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

// FuzzReadTrace holds the scanning reader to the json.Decoder loop it
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
// the scanning path and the reference path. The FuzzReadTrace seeds
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
