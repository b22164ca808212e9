package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"testing"

	"livetm/internal/alloctest"
)

// frames lists every hand-written frame by a constructor of its zero
// value: what the differential tests and FuzzWireFrames range over.
var frames = []func() any{
	func() any { return new(Op) },
	func() any { return new(ExecRequest) },
	func() any { return new(ExecResponse) },
	func() any { return new(ErrorResponse) },
	func() any { return new(BeginRequest) },
	func() any { return new(BeginResponse) },
	func() any { return new(TxOpRequest) },
	func() any { return new(TxOpResponse) },
	func() any { return new(TxFinishRequest) },
	func() any { return new(TxFinishResponse) },
}

// checkEncode requires JSONCodec to write v exactly as json.Encoder
// does, and returns the bytes.
func checkEncode(t *testing.T, v any) []byte {
	t.Helper()
	var got, want bytes.Buffer
	if err := (JSONCodec{}).Encode(&got, v); err != nil {
		t.Fatalf("encode %+v: %v", v, err)
	}
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatalf("reference encode %+v: %v", v, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("encode %T:\n got %q\nwant %q", v, got.Bytes(), want.Bytes())
	}
	checkAppendEncode(t, v, []byte("frame: "), got.Bytes())
	return got.Bytes()
}

// checkAppendEncode requires AppendEncode to append to a copy of pre
// exactly the frame Encode wrote, leaving pre's bytes as they were.
func checkAppendEncode(t *testing.T, v any, pre, frame []byte) {
	t.Helper()
	dst := append(make([]byte, 0, len(pre)+len(frame)/2), pre...)
	got, err := (JSONCodec{}).AppendEncode(dst, v)
	if err != nil {
		t.Fatalf("append-encode %+v: %v", v, err)
	}
	if !bytes.HasPrefix(got, pre) || !bytes.Equal(got[len(pre):], frame) {
		t.Fatalf("append-encode %T after %q:\n got %q\nwant %q", v, pre, got, append(pre[:len(pre):len(pre)], frame...))
	}
}

// checkDecode requires JSONCodec to decode data into a fresh frame
// exactly as json.Decoder does — same success, same value — and the
// decoded value to encode as encoding/json encodes it.
func checkDecode(t *testing.T, fresh func() any, data []byte) (any, error) {
	t.Helper()
	got, want := fresh(), fresh()
	err := (JSONCodec{}).Decode(bytes.NewReader(data), got)
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(want)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decode %T from %q: error %v, reference %v", got, data, err, wantErr)
	}
	if err == nil {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %T from %q:\n got %+v\nwant %+v", got, data, got, want)
		}
		checkEncode(t, got)
	}
	return got, err
}

// The bytes of every frame, pinned: what a peer built against the
// encoding/json codec reads and writes.
func TestGoldenFrames(t *testing.T) {
	for _, c := range []struct {
		frame any
		wire  string
	}{
		{&Op{Kind: OpRead, Var: 3}, `{"kind":"read","var":3}`},
		{&Op{Kind: OpIncr, Var: 0, Val: -1}, `{"kind":"incr","var":0,"val":-1}`},
		{&ExecRequest{Worker: -1, Ops: []Op{{Kind: OpWrite, Var: 1, Val: 41}, {Kind: OpRead, Var: 1}}},
			`{"worker":-1,"ops":[{"kind":"write","var":1,"val":41},{"kind":"read","var":1}]}`},
		{&ExecRequest{Worker: 2, Ops: []Op{}}, `{"worker":2,"ops":[]}`},
		{&ExecRequest{}, `{"worker":0,"ops":null}`},
		{&ExecResponse{Committed: true, Reads: []int64{41, math.MinInt64}}, `{"committed":true,"reads":[41,-9223372036854775808]}`},
		{&ExecResponse{NoCommit: true, Reads: []int64{}}, `{"committed":false,"nocommit":true}`},
		{&ErrorResponse{Code: CodeOverloaded, Error: "server: overloaded", RetryAfterMS: 50},
			`{"code":"overloaded","error":"server: overloaded","retry_after_ms":50}`},
		{&ErrorResponse{Code: CodeBadRequest, Error: "op 0: unknown kind \"<frob>\" & more\u2028"},
			`{"code":"bad-request","error":"op 0: unknown kind \"\u003cfrob\u003e\" \u0026 more\u2028"}`},
		{&BeginRequest{Worker: 1}, `{"worker":1}`},
		{&BeginResponse{Txn: "t9"}, `{"txn":"t9"}`},
		{&TxOpRequest{Txn: "t9", Op: Op{Kind: OpWrite, Var: 2, Val: 5}}, `{"txn":"t9","op":{"kind":"write","var":2,"val":5}}`},
		{&TxOpResponse{Val: 5}, `{"val":5}`},
		{&TxOpResponse{Aborted: true}, `{"val":0,"aborted":true}`},
		{&TxFinishRequest{Txn: "t9", Mode: FinishNoCommit}, `{"txn":"t9","mode":"nocommit"}`},
		{&TxFinishResponse{Committed: true}, `{"committed":true}`},
		{&TxFinishResponse{Retrying: true}, `{"committed":false,"retrying":true}`},
		{&TxFinishResponse{Code: CodeAbandoned}, `{"committed":false,"code":"abandoned"}`},
	} {
		if got := checkEncode(t, c.frame); string(got) != c.wire+"\n" {
			t.Errorf("%T:\n got %q\nwant %q", c.frame, got, c.wire+"\n")
		}
		fresh := func() any { return reflect.New(reflect.TypeOf(c.frame).Elem()).Interface() }
		back, err := checkDecode(t, fresh, []byte(c.wire))
		if err != nil {
			t.Errorf("decode %s: %v", c.wire, err)
		}
		// Only what the wire carries comes back: an empty Reads is omitted.
		if again := checkEncode(t, back); string(again) != c.wire+"\n" {
			t.Errorf("%T round trip:\n got %q\nwant %q", c.frame, again, c.wire+"\n")
		}
	}
}

// Frames by value encode as frames by pointer (bench and tests pass
// values), and the types without hand-written halves still cross.
func TestCodecByValueAndFallbackTypes(t *testing.T) {
	if got := checkEncode(t, ExecResponse{Committed: true, Reads: []int64{1}}); string(got) != `{"committed":true,"reads":[1]}`+"\n" {
		t.Errorf("by value: %q", got)
	}
	info := InfoResponse{Engine: "native-tl2", Workers: 2, Vars: 4, Live: true}
	var back InfoResponse
	if err := (JSONCodec{}).Decode(bytes.NewReader(checkEncode(t, info)), &back); err != nil || back != info {
		t.Errorf("InfoResponse round trip: %+v, %v", back, err)
	}
}

// Once its scratch has grown, a transaction's frames cost nothing to
// decode on the server — op kinds come back as the package's constants,
// not as a string each — and nothing to encode; the client pays for
// the Reads it hands its caller and no more.
func TestAllocBudgetPerWireFrame(t *testing.T) {
	alloctest.NeedSteadyPools(t)
	codec := JSONCodec{}
	ops := make([]Op, 8)
	for i := range ops {
		ops[i] = Op{Kind: []string{OpRead, OpIncr, OpWrite}[i%3], Var: i, Val: int64(i % 2)}
	}
	var reqFrame, respFrame bytes.Buffer
	resp := ExecResponse{Committed: true, Reads: []int64{7, -7, 1 << 40, 0, 5}}
	if err := codec.Encode(&reqFrame, &ExecRequest{Worker: 1, Ops: ops}); err != nil {
		t.Fatal(err)
	}
	if err := codec.Encode(&respFrame, &resp); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	measure := func(name string, budget float64, f func() error) {
		t.Helper()
		if err := f(); err != nil { // grow the scratch
			t.Fatalf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if err := f(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}); n > budget {
			t.Errorf("%s: %.2f allocations per frame, budget %.0f", name, n, budget)
		}
	}
	sc := execScratches.Get().(*execScratch)
	measure("server: ExecRequest into warmed scratch", 0, func() error {
		sc.req.Ops = sc.req.Ops[:0]
		rd.Reset(reqFrame.Bytes())
		return codec.Decode(rd, &sc.req)
	})
	if !reflect.DeepEqual(sc.req.Ops, ops) {
		t.Errorf("decoded %+v, want %+v", sc.req.Ops, ops)
	}
	measure("server: ExecResponse", 0, func() error { return codec.Encode(io.Discard, &resp) })
	var out ExecResponse
	measure("client: ExecResponse, a caller's Reads", 1, func() error {
		out.Reads = nil
		rd.Reset(respFrame.Bytes())
		return codec.Decode(rd, &out)
	})
	if !reflect.DeepEqual(out, resp) {
		t.Errorf("decoded %+v, want %+v", out, resp)
	}
}

// FuzzWireFrames holds the hand-written frames to encoding/json from
// both ends: any bytes decode into every frame as json.Decoder decodes
// them (same success, same value), and frames built from fuzzed field
// values encode byte for byte as json.Encoder encodes them, and append
// after a fuzzed non-empty prefix, which they keep, exactly as Encode
// writes them. The seeds, one per corner of the grammar, are under
// testdata/fuzz.
func FuzzWireFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, s string, n int64, shape byte) {
		for _, fresh := range frames {
			checkDecode(t, fresh, data)
		}
		var ops []Op
		var reads []int64
		switch shape % 3 {
		case 1:
			ops, reads = []Op{}, []int64{}
		case 2:
			ops = []Op{{Kind: s, Var: int(n), Val: n}, {Kind: OpRead}, {Kind: OpWrite, Var: 1, Val: -n}}
			reads = []int64{n, -n, math.MinInt64, 0}
		}
		flag := shape&4 != 0
		for _, v := range []any{
			&Op{Kind: s, Var: int(n), Val: n},
			&ExecRequest{Worker: int(n), Ops: ops},
			&ExecResponse{Committed: flag, NoCommit: !flag, Reads: reads},
			&ErrorResponse{Code: s, Error: s + " " + s, RetryAfterMS: n},
			&BeginRequest{Worker: int(n)},
			&BeginResponse{Txn: s},
			&TxOpRequest{Txn: s, Op: Op{Kind: s, Var: int(n), Val: n}},
			&TxOpResponse{Val: n, Aborted: flag},
			&TxFinishRequest{Txn: s, Mode: s},
			&TxFinishResponse{Committed: flag, Retrying: !flag, Code: s},
		} {
			wire := checkEncode(t, v)
			checkAppendEncode(t, v, append([]byte{shape}, s...), wire)
			fresh := func() any { return reflect.New(reflect.TypeOf(v).Elem()).Interface() }
			if _, err := checkDecode(t, fresh, wire); err != nil {
				t.Fatalf("%T does not decode its own encoding %q: %v", v, wire, err)
			}
		}
	})
}
