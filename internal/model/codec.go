package model

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"livetm/internal/jsonscan"
)

// kindNamed maps a conventional short name (Kind.String) back to its
// kind; 0 when there is none.
func kindNamed(name []byte) Kind {
	for k := InvRead; k <= RespAbort; k++ {
		if string(name) == k.String() {
			return k
		}
	}
	return 0
}

// AppendJSON appends the event's trace line — its JSON object and a
// newline, byte for byte what json.Encoder writes for an Event — to
// dst. Kind picks the members: var for reads and writes, val for
// writes and value responses.
func (e Event) AppendJSON(dst []byte) ([]byte, error) {
	if e.Kind < InvRead || e.Kind > RespAbort {
		return dst, fmt.Errorf("model: cannot encode event with kind %d", int(e.Kind))
	}
	dst = append(dst, `{"proc":`...)
	dst = strconv.AppendInt(dst, int64(e.Proc), 10)
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, e.Kind.String()...)
	dst = append(dst, '"')
	if e.Kind == InvRead || e.Kind == InvWrite {
		dst = append(dst, `,"var":`...)
		dst = strconv.AppendInt(dst, int64(e.Var), 10)
	}
	if e.Kind == InvWrite || e.Kind == RespValue {
		dst = append(dst, `,"val":`...)
		dst = strconv.AppendInt(dst, int64(e.Val), 10)
	}
	return append(dst, "}\n"...), nil
}

// lineLen is the length of the line AppendJSON writes for e.
func (e Event) lineLen() int {
	n := len(`{"proc":,"kind":""}`+"\n") + intLen(int64(e.Proc)) + len(e.Kind.String())
	if e.Kind == InvRead || e.Kind == InvWrite {
		n += len(`,"var":`) + intLen(int64(e.Var))
	}
	if e.Kind == InvWrite || e.Kind == RespValue {
		n += len(`,"val":`) + intLen(int64(e.Val))
	}
	return n
}

// intLen is the length of strconv.AppendInt's decimal text for v.
func intLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// MarshalJSON implements json.Marshaler.
func (e Event) MarshalJSON() ([]byte, error) {
	line, err := e.AppendJSON(nil)
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}

// The outcomes of matching a trace line other than a match, which
// returns the index after it (never negative).
const (
	declined = -1 // not an object AppendJSON writes
	short    = -2 // the bytes end inside what may still be one
)

// Digit counts that keep a matched id in its own range check and a
// value inside int64 without an overflow check. A longer value, which
// AppendJSON writes, is left to encoding/json.
const (
	procDigits = 5  // MaxProc, 32 767
	varDigits  = 10 // MaxTVar, 2 147 483 647
	valDigits  = 18
)

// kindLits are the kinds' names as AppendJSON writes them, each with
// the quote that closes it, and kindOf is the kind whose name starts
// with a byte (no two start alike), 0 for any other byte.
var kindLits, kindOf = func() (lits [RespAbort + 1]string, of [256]Kind) {
	for k := InvRead; k <= RespAbort; k++ {
		lits[k] = k.String() + `"`
		of[lits[k][0]] = k
	}
	return lits, of
}()

// matchEvent matches, at the start of b, an event object exactly as
// AppendJSON writes it, up to its closing brace. It returns the event
// and the object's length, or declined, or short when b ends before
// the match is decided either way. It reads nothing past the brace.
func matchEvent(b []byte) (Event, int) {
	proc, i := matchDigits(b, matchLit(b, 0, `{"proc":`), procDigits)
	if i >= 0 && (proc == 0 || proc > MaxProc) {
		return Event{}, declined
	}
	i = matchLit(b, i, `,"kind":"`)
	switch {
	case i < 0:
		return Event{}, i
	case i == len(b):
		return Event{}, short
	}
	e := Event{Kind: kindOf[b[i]]}
	if e.Kind == 0 {
		return Event{}, declined
	}
	i = matchLit(b, i, kindLits[e.Kind])
	if e.Kind == InvRead || e.Kind == InvWrite {
		var x uint64
		x, i = matchDigits(b, matchLit(b, i, `,"var":`), varDigits)
		if i >= 0 && x > MaxTVar {
			return Event{}, declined
		}
		e.Var = TVar(x)
	}
	if e.Kind == InvWrite || e.Kind == RespValue {
		i = matchLit(b, i, `,"val":`)
		neg := i >= 0 && i < len(b) && b[i] == '-'
		if neg {
			i++
		}
		var v uint64
		v, i = matchDigits(b, i, valDigits)
		if neg && i >= 0 && v == 0 {
			return Event{}, declined // AppendJSON writes no -0
		}
		e.Val = Value(v)
		if neg {
			e.Val = -e.Val
		}
	}
	e.Proc = Proc(proc)
	return e, matchLit(b, i, "}")
}

// matchLit matches lit at b[i:] and returns the index after it. Like
// matchDigits, it passes on a negative i, the outcome of an earlier
// step.
func matchLit(b []byte, i int, lit string) int {
	if i < 0 {
		return i
	}
	if rest := b[i:]; len(rest) < len(lit) {
		if string(rest) == lit[:len(rest)] {
			return short
		}
		return declined
	}
	if string(b[i:i+len(lit)]) != lit {
		return declined
	}
	return i + len(lit)
}

// matchDigits matches at b[i:] a non-negative integer as
// strconv.AppendInt writes it, 0 or at most width digits without a
// leading zero, and returns its value and the index after it.
func matchDigits(b []byte, i, width int) (uint64, int) {
	if i < 0 {
		return 0, i
	}
	var v uint64
	j := i
	for ; j < len(b) && b[j]-'0' <= 9; j++ {
		if j-i == width {
			return 0, declined
		}
		v = v*10 + uint64(b[j]-'0')
	}
	switch {
	case j == len(b):
		return 0, short
	case j == i, b[i] == '0' && j > i+1:
		return 0, declined
	}
	return v, j
}

// UnmarshalJSON implements json.Unmarshaler. It is the definition of
// which event objects decode and to what; TraceReader matches the lines
// AppendJSON writes without it and hands it every other value.
func (e *Event) UnmarshalJSON(data []byte) error {
	// The pointers tell an absent member from a zero one.
	type eventJSON struct {
		Proc int    `json:"proc"`
		Kind string `json:"kind"`
		Var  *int   `json:"var"`
		Val  *int64 `json:"val"`
	}
	var ej eventJSON
	if err := json.Unmarshal(data, &ej); err != nil {
		return err
	}
	kind := kindNamed([]byte(ej.Kind))
	if kind == 0 {
		return fmt.Errorf("model: unknown event kind %q", ej.Kind)
	}
	if ej.Proc <= 0 {
		return fmt.Errorf("model: event has non-positive process id %d", ej.Proc)
	}
	if ej.Proc > MaxProc {
		return fmt.Errorf("model: event member \"proc\" is %d, above MaxProc %d", ej.Proc, MaxProc)
	}
	ev := Event{Proc: Proc(ej.Proc), Kind: kind}
	switch kind {
	case InvRead:
		if ej.Var == nil {
			return fmt.Errorf("model: read event missing var")
		}
		if err := checkVar(*ej.Var); err != nil {
			return err
		}
		ev.Var = TVar(*ej.Var)
	case InvWrite:
		if ej.Var == nil || ej.Val == nil {
			return fmt.Errorf("model: write event missing var or val")
		}
		if err := checkVar(*ej.Var); err != nil {
			return err
		}
		ev.Var, ev.Val = TVar(*ej.Var), Value(*ej.Val)
	case RespValue:
		if ej.Val == nil {
			return fmt.Errorf("model: value response missing val")
		}
		ev.Val = Value(*ej.Val)
	}
	*e = ev
	return nil
}

// checkVar refuses a t-variable id that TVar cannot hold.
func checkVar(x int) error {
	if x < 0 || x > MaxTVar {
		return fmt.Errorf("model: event member \"var\" is %d, outside 0..MaxTVar (%d)", x, MaxTVar)
	}
	return nil
}

// traceBufSize is TraceReader's refill buffer and WriteTrace's write
// buffer: a few thousand events per read or write, and longer than any
// value but a deliberately padded one.
const traceBufSize = 64 << 10

// TraceReader streams the events of a JSON Lines trace: a sequence of
// event objects separated by any JSON whitespace. An event exactly as
// AppendJSON writes it is matched in place out of one fixed buffer;
// any other value is decoded by encoding/json through
// Event.UnmarshalJSON, exactly as json.Decoder would have.
type TraceReader struct {
	src      io.Reader
	buf      []byte
	pos, end int   // buf[pos:end] is read and not yet consumed
	srcErr   error // what src last returned; no Read follows it
	err      error // sticky: what Next returns from now on
}

// NewTraceReader returns a reader of the trace in r. It reads r no
// further ahead than one Read into its buffer, so a trace arriving on
// a pipe is handed out event by event as it arrives.
func NewTraceReader(r io.Reader) *TraceReader {
	return &TraceReader{src: r, buf: make([]byte, traceBufSize)}
}

// Next returns the next event, io.EOF after the last one, or the
// error of the value that does not decode — encoding/json's own, or
// Event.UnmarshalJSON's. After an error every call returns it again.
func (r *TraceReader) Next() (Event, error) {
	for r.err == nil {
		for r.pos < r.end && jsonscan.IsSpace(r.buf[r.pos]) {
			r.pos++
		}
		if r.pos == r.end {
			if !r.fill() {
				r.err = r.srcErr
			}
			continue
		}
		e, n := matchEvent(r.buf[r.pos:r.end])
		if n >= 0 {
			r.pos += n
			return e, nil
		}
		if n == short && r.fill() {
			continue // the line was cut off by the buffer's end: match it again, whole
		}
		return r.decode()
	}
	return Event{}, r.err
}

// fill moves the unconsumed bytes to the front of the buffer and reads
// more behind them. It reports false when nothing was added: the
// source has ended or failed (srcErr), or the buffer is full of one
// unfinished value.
func (r *TraceReader) fill() bool {
	if r.srcErr != nil {
		return false
	}
	r.end = copy(r.buf, r.buf[r.pos:r.end])
	r.pos = 0
	if r.end == len(r.buf) {
		return false
	}
	for empty := 0; empty < 100; empty++ {
		n, err := r.src.Read(r.buf[r.end:])
		r.end += n
		r.srcErr = err
		if n > 0 || err != nil {
			return n > 0
		}
	}
	r.srcErr = io.ErrNoProgress
	return false
}

// decode hands the value at pos to a json.Decoder reading the buffer's
// remainder and then the source, and takes back what the decoder read
// beyond the value.
func (r *TraceReader) decode() (Event, error) {
	start, fromSrc := r.pos, 0
	dec := json.NewDecoder(readerFunc(func(p []byte) (int, error) {
		if r.pos < r.end {
			n := copy(p, r.buf[r.pos:r.end])
			r.pos += n
			return n, nil
		}
		if r.srcErr != nil {
			return 0, r.srcErr
		}
		n, err := r.src.Read(p)
		fromSrc += n
		r.srcErr = err
		return n, err
	}))
	var e Event
	if err := dec.Decode(&e); err != nil {
		r.err = err
		return Event{}, err
	}
	valueEnd := start + int(dec.InputOffset())
	if fromSrc == 0 {
		r.pos = valueEnd // the decoder saw nothing but the buffer
		return e, nil
	}
	ahead := r.end + fromSrc - valueEnd
	if ahead > len(r.buf) {
		r.buf = make([]byte, ahead)
	}
	r.pos = 0
	r.end, _ = io.ReadFull(dec.Buffered(), r.buf[:ahead])
	return e, nil
}

type readerFunc func(p []byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// minEventLine is the shortest line WriteTrace writes; it turns an
// input's length into an upper bound on its events.
const minEventLine = len(`{"proc":1,"kind":"C"}` + "\n")

// eventBound returns how many events to reserve for what r still
// holds, when r says what that is: the unread part of a bytes.Reader or
// strings.Reader, or a regular file from its offset to its end (an
// input redirected from a file is one). Every event is an object, so
// that part holds at most as many events as '{' bytes. They are counted
// with ReadAt, which moves no reader, through buf, which the
// TraceReader has not filled yet, and the count is capped at
// size/minEventLine. Any other input, a pipe among them, gets 0 and its
// History grows as events arrive.
func eventBound(r io.Reader, buf []byte) int64 {
	var (
		at       io.ReaderAt
		off, end int64
	)
	switch r := r.(type) {
	case interface {
		Len() int
		Size() int64
		io.ReaderAt
	}:
		at, off, end = r, r.Size()-int64(r.Len()), r.Size()
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0
		}
		if off, err = r.Seek(0, io.SeekCurrent); err != nil {
			return 0
		}
		at, end = r, fi.Size()
	default:
		return 0
	}
	bound := (end - off) / int64(minEventLine)
	var n int64
	for off < end {
		k, err := at.ReadAt(buf[:min(int64(len(buf)), end-off)], off)
		n += int64(bytes.Count(buf[:k], []byte("{")))
		off += int64(k)
		if err != nil || k == 0 {
			break
		}
	}
	return min(n, bound)
}

// maxEventLine bounds the line AppendJSON writes: the longest kind
// that carries both var and val, and three integers of int64's widest.
const maxEventLine = len(`{"proc":,"kind":"write","var":,"val":}`+"\n") + 3*len("-9223372036854775808")

// WriteTrace writes the history as JSON Lines: one event object per
// line, streamable and appendable. The lines are appended straight into
// the free space of what they are written to, traceBufSize bytes at a
// time: a bytes.Buffer's own, reserved first at the trace's exact
// length, or, for any other writer, that of one bufio.Writer. A writer
// that can grow (a strings.Builder) reserves the length too.
func WriteTrace(w io.Writer, h History) error {
	if g, ok := w.(interface{ Grow(int) }); ok {
		n := 0
		for _, e := range h {
			n += e.lineLen()
		}
		g.Grow(n)
	}
	var lw interface {
		io.Writer
		AvailableBuffer() []byte
	}
	var bw *bufio.Writer
	if b, ok := w.(*bytes.Buffer); ok {
		lw = b
	} else {
		bw = bufio.NewWriterSize(w, traceBufSize)
		lw = bw
	}
	chunk := lw.AvailableBuffer()
	for i, e := range h {
		var err error
		if len(chunk) >= traceBufSize || cap(chunk)-len(chunk) < maxEventLine {
			if _, err = lw.Write(chunk); err == nil && bw != nil {
				err = bw.Flush() // the chunk filled its buffer
			}
			chunk = lw.AvailableBuffer()
		}
		if err == nil {
			chunk, err = e.AppendJSON(chunk)
		}
		if err != nil {
			return fmt.Errorf("model: encode event %d: %w", i, err)
		}
	}
	if _, err := lw.Write(chunk); err != nil || bw == nil {
		return err
	}
	return bw.Flush()
}

// ReadTrace reads a JSON Lines trace written by WriteTrace. It sizes
// the History once, before decoding, exactly for a canonical trace in
// memory or in a file (see eventBound).
func ReadTrace(r io.Reader) (History, error) {
	tr := NewTraceReader(r)
	var h History
	if n := eventBound(r, tr.buf); n > 0 {
		h = make(History, 0, n)
	}
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

// decodeError is the error that stopped a decode at one event. The
// errors of UnmarshalJSON name the package already, so its text does
// so once: "model: decode event 0: event member ...".
type decodeError struct {
	at  int
	err error
}

func (e *decodeError) Error() string {
	return fmt.Sprintf("model: decode event %d: %s", e.at, strings.TrimPrefix(e.err.Error(), "model: "))
}

func (e *decodeError) Unwrap() error { return e.err }

// SaveTrace writes the history to a file.
func SaveTrace(path string, h History) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if err := WriteTrace(f, h); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadTrace reads a history from a file written by SaveTrace.
func LoadTrace(path string) (History, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	defer f.Close()
	return ReadTrace(f)
}
