package server

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"

	"livetm/internal/jsonscan"
)

// JSONCodec frames the wire bodies of both the server and
// internal/client: one JSON document per frame, a newline behind it.
// It treats a frame by the frame's type and by nothing else. The
// frames a transaction crosses — ExecRequest, ExecResponse,
// ErrorResponse, and the Begin, TxOp and TxFinish pairs — are written
// by append and read by the jsonscan scanner (frames.go), through
// pooled buffers; a frame of theirs
// outside the scanner's subset, and every other type — the
// once-per-session InfoResponse, engine.SessionStats, DrainResponse —
// goes through encoding/json. The bytes are encoding/json's either
// way, and so is every rejection.
type JSONCodec struct{}

// ContentType is the HTTP content type of encoded frames.
func (JSONCodec) ContentType() string { return "application/json" }

// appender and parser are the hand-written halves of a frame; Encode
// takes a frame by value or by pointer, Decode by pointer.
type appender interface {
	appendJSON(dst []byte) []byte
}

type parser interface {
	parseJSON(s *jsonscan.Scanner) bool
}

// frameBuf is the scratch of one Encode or Decode call: the bytes a
// frame is built in or read into, and the scanner over them (pooled
// with them because a scanner handed to an interface method escapes).
type frameBuf struct {
	buf  bytes.Buffer
	scan jsonscan.Scanner
}

var frameBufs = sync.Pool{New: func() any { return new(frameBuf) }}

// Encode writes v's frame to w.
func (JSONCodec) Encode(w io.Writer, v any) error {
	f, ok := v.(appender)
	if !ok {
		return json.NewEncoder(w).Encode(v)
	}
	fb := frameBufs.Get().(*frameBuf)
	defer frameBufs.Put(fb)
	fb.buf.Reset()
	fb.buf.Write(append(f.appendJSON(fb.buf.AvailableBuffer()), '\n'))
	_, err := w.Write(fb.buf.Bytes())
	return err
}

// Decode reads one frame from r into v: like encoding/json it sets the
// fields the frame names and leaves the others as they were, and
// reuses the capacity of a slice it refills. Like json.Decoder it decodes the first
// value in r and does not look at what follows it.
func (JSONCodec) Decode(r io.Reader, v any) error {
	f, ok := v.(parser)
	if !ok {
		return json.NewDecoder(r).Decode(v)
	}
	fb := frameBufs.Get().(*frameBuf)
	defer frameBufs.Put(fb)
	fb.buf.Reset()
	_, readErr := fb.buf.ReadFrom(r)
	fb.scan = jsonscan.Scanner{Buf: fb.buf.Bytes()}
	if f.parseJSON(&fb.scan) {
		return nil
	}
	err := json.NewDecoder(bytes.NewReader(fb.buf.Bytes())).Decode(v)
	if err != nil && readErr != nil {
		return readErr // the frame is incomplete because the read failed
	}
	return err
}
