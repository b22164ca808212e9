package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
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
// way, and so is every rejection. AppendEncode writes the bytes Encode
// does into a caller's slice, the way internal/client builds a request
// frame in storage of its own.
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
// frame is built in or read into, the scanner over them (pooled with
// them because a scanner handed to an interface method escapes), and
// the reader that bounds a request body (pooled for the same reason).
type frameBuf struct {
	buf  bytes.Buffer
	scan jsonscan.Scanner
	lim  io.LimitedReader
}

var frameBufs = sync.Pool{New: func() any { return new(frameBuf) }}

// Encode writes v's frame to w.
func (c JSONCodec) Encode(w io.Writer, v any) error {
	fb := frameBufs.Get().(*frameBuf)
	defer frameBufs.Put(fb)
	fb.buf.Reset()
	frame, err := c.AppendEncode(fb.buf.AvailableBuffer(), v)
	if err != nil {
		return err
	}
	fb.buf.Write(frame) // the pooled buffer keeps what the frame grew it to
	_, err = w.Write(fb.buf.Bytes())
	return err
}

// AppendEncode appends v's frame to dst and returns the extended
// slice: exactly the bytes Encode writes, with dst's own bytes left as
// they were.
func (JSONCodec) AppendEncode(dst []byte, v any) ([]byte, error) {
	if f, ok := v.(appender); ok {
		return append(f.appendJSON(dst), '\n'), nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(append(dst, b...), '\n'), nil
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
	return fb.parse(f, readErr)
}

// decodeCapped is Decode for a body of at most max bytes, read through
// the pooled buffer's own LimitedReader. A longer body is refused whole
// with the *http.MaxBytesError that http.MaxBytesReader reports, before
// a byte of it is decoded.
func decodeCapped(r io.Reader, f parser, max int64) error {
	fb := frameBufs.Get().(*frameBuf)
	defer frameBufs.Put(fb)
	fb.buf.Reset()
	fb.lim = io.LimitedReader{R: r, N: max + 1}
	_, readErr := fb.buf.ReadFrom(&fb.lim)
	fb.lim.R = nil // the pool keeps no request body alive
	if int64(fb.buf.Len()) > max {
		return &http.MaxBytesError{Limit: max}
	}
	return fb.parse(f, readErr)
}

// parse decodes the frame in fb.buf into f: by the scanner when the
// frame is in its subset, by encoding/json otherwise. readErr is what
// stopped the read that filled the buffer.
func (fb *frameBuf) parse(f parser, readErr error) error {
	fb.scan = jsonscan.Scanner{Buf: fb.buf.Bytes()}
	if f.parseJSON(&fb.scan) {
		return nil
	}
	err := json.NewDecoder(bytes.NewReader(fb.buf.Bytes())).Decode(f)
	if err != nil && readErr != nil {
		return readErr // the frame is incomplete because the read failed
	}
	return err
}
