// Package model provides the formal vocabulary of the paper "On the
// Liveness of Transactional Memory" (Bushkov, Guerraoui, Kapałka; PODC
// 2012): invocation and response events, histories, per-process
// projections, the per-process alphabet Σ_k, transactions, completion
// com(H), equivalence, and the real-time precedence order.
//
// The package is purely about finite histories; infinite histories are
// modeled in package liveness as lassos (eventually-periodic histories)
// whose segments are model.History values.
//
// # Trace files
//
// A history is stored as JSON Lines: one event object per line, with
// the members "proc", "kind" (read, write, tryC, val, ok, C, A),
// "var" for reads and writes and "val" for writes and value responses
// — {"proc":1,"kind":"read","var":0}. Event.AppendJSON writes exactly
// these bytes, and WriteTrace, SaveTrace and MarshalJSON go through
// it; WriteTrace writes through one 64 KB buffer, into a writer that
// can grow only after reserving the trace's exact length. Reading
// accepts more than is written: any sequence of event objects
// separated by JSON whitespace, each as encoding/json would decode it
// through Event.UnmarshalJSON. Reading has two tiers. TraceReader
// (behind ReadTrace and LoadTrace) matches the exact object
// AppendJSON writes itself, out of one fixed buffer and without
// allocating per event: the members in AppendJSON's order with no
// whitespace inside the object, only those the kind needs, the kind's
// name unescaped, ids in range and every integer as strconv.AppendInt
// writes it (no leading zero, no -0) with at most 18 digits. Any
// other value — whitespace inside the object, members in another
// order, escaped, case-folded, repeated, unknown or unused members,
// null, exponents and fractions, 19-digit numbers, an id out of
// range, a value longer than the buffer, a non-object, anything
// malformed or invalid — is handed, for that one value, to a
// json.Decoder and through it to UnmarshalJSON, so what is accepted,
// what is rejected, and in which words, is decided where it always
// was. The differential tests and FuzzReadTrace hold the two tiers to
// the same histories and the same errors.
//
// Ids are range-checked, never narrowed: "proc" must lie in
// 1..MaxProc (32 767) and, on a read or a write, "var" in 0..MaxTVar
// (2³¹−1); UnmarshalJSON refuses anything else, naming the member and
// the value. ReadTrace sizes its History once, before decoding. From a
// reader whose remainder it can read again in place (bytes.Reader,
// strings.Reader, a regular file) it reserves one event per '{' byte,
// counted with ReadAt through the reader's own buffer, which is exact
// for a canonical trace and capped at one event per 22 bytes (the
// shortest line); from a pipe nothing, growing as events arrive.
package model

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Proc identifies a process p_k. Process identifiers are positive and
// at most MaxProc, so a Proc is 16 bits wide; the zero value is invalid
// so that accidentally unset fields are caught.
//
// State kept per process on a per-event path belongs in a slice
// indexed by Proc (ProcTable), not in a map keyed by it: the runtime's
// map fast paths cover 32- and 64-bit keys only, so every lookup of a
// 16-bit key hashes through its generic path.
type Proc int16

// ProcTable is per-process state in a slice indexed by Proc: entry p
// is process p's and entry 0 is unused. At lengthens it to the largest
// id asked for and no further, so a table holds what the processes
// seen so far need, never MaxProc entries; its storage doubles, from
// room for minProcTable entries, so a small system allocates it once.
// The zero value is an empty table.
type ProcTable[T any] []T

const minProcTable = 8

// At returns process p's entry, lengthening the table with zero entries
// to reach it, or nil when p is not a process id (p < 1). The pointer
// is valid until a later At lengthens the table.
func (t *ProcTable[T]) At(p Proc) *T {
	if p < 1 {
		return nil
	}
	if n := int(p) + 1; n > len(*t) {
		s := *t
		if n > cap(s) {
			s = make([]T, len(s), max(n, 2*cap(s), minProcTable))
			copy(s, *t)
		}
		*t = s[:n]
		clear((*t)[len(s):])
	}
	return &(*t)[p]
}

// TVar identifies a transactional variable ("t-variable" in the paper).
// T-variable identifiers are non-negative and at most MaxTVar, so a TVar
// is 32 bits wide; experiments use small dense identifiers starting at 0.
type TVar int32

// The largest identifiers the model holds. Decoding rejects a larger
// one, and every configuration that numbers processes or t-variables
// refuses counts above them, so no identifier is ever narrowed.
const (
	MaxProc = math.MaxInt16
	MaxTVar = math.MaxInt32
)

// Value is the value domain V of t-variables. The paper leaves V
// abstract; int64 is large enough for every experiment, including the
// unbounded counter used by the impossibility adversary (which writes
// v+1 forever).
type Value int64

// Kind enumerates the kinds of events that can appear in a history.
// Invocation kinds come first, response kinds second; the zero value is
// invalid per the style guide ("start enums at one"). The seven kinds
// fit in 8 bits.
type Kind uint8

// Event kinds. InvRead, InvWrite and InvTryCommit are the invocation
// events Inv_k of the paper; the remaining kinds are the response
// events Res_k.
const (
	// InvRead is the invocation x.read_k().
	InvRead Kind = iota + 1
	// InvWrite is the invocation x.write_k(v).
	InvWrite
	// InvTryCommit is the invocation tryC_k.
	InvTryCommit
	// RespValue is the response v_k carrying the value read.
	RespValue
	// RespOK is the response ok_k acknowledging a write.
	RespOK
	// RespCommit is the commit event C_k.
	RespCommit
	// RespAbort is the abort event A_k.
	RespAbort
)

// String returns the conventional short name of the kind.
func (k Kind) String() string {
	switch k {
	case InvRead:
		return "read"
	case InvWrite:
		return "write"
	case InvTryCommit:
		return "tryC"
	case RespValue:
		return "val"
	case RespOK:
		return "ok"
	case RespCommit:
		return "C"
	case RespAbort:
		return "A"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// IsInvocation reports whether the kind is an invocation event.
func (k Kind) IsInvocation() bool {
	return k == InvRead || k == InvWrite || k == InvTryCommit
}

// IsResponse reports whether the kind is a response event.
func (k Kind) IsResponse() bool {
	return k == RespValue || k == RespOK || k == RespCommit || k == RespAbort
}

// Event is a single invocation or response event of a history. The
// fields used depend on Kind:
//
//	InvRead       Proc, Var
//	InvWrite      Proc, Var, Val
//	InvTryCommit  Proc
//	RespValue     Proc, Val
//	RespOK        Proc
//	RespCommit    Proc
//	RespAbort     Proc
//
// The fields are ordered widest first, so an Event packs into 16 bytes
// (15 of fields, one of padding); every history, stream ring and window
// holds events at that size.
type Event struct {
	Val  Value
	Var  TVar
	Proc Proc
	Kind Kind
}

// Read returns the invocation event x.read_k().
func Read(p Proc, x TVar) Event { return Event{Proc: p, Kind: InvRead, Var: x} }

// Write returns the invocation event x.write_k(v).
func Write(p Proc, x TVar, v Value) Event {
	return Event{Proc: p, Kind: InvWrite, Var: x, Val: v}
}

// TryCommit returns the invocation event tryC_k.
func TryCommit(p Proc) Event { return Event{Proc: p, Kind: InvTryCommit} }

// ValueResp returns the response event v_k.
func ValueResp(p Proc, v Value) Event { return Event{Proc: p, Kind: RespValue, Val: v} }

// OK returns the response event ok_k.
func OK(p Proc) Event { return Event{Proc: p, Kind: RespOK} }

// Commit returns the commit event C_k.
func Commit(p Proc) Event { return Event{Proc: p, Kind: RespCommit} }

// Abort returns the abort event A_k.
func Abort(p Proc) Event { return Event{Proc: p, Kind: RespAbort} }

// String renders the event in the paper's notation, e.g. "x0.read_1",
// "x0.write_2(5)", "tryC_1", "3_1", "ok_2", "C_1", "A_2".
func (e Event) String() string {
	switch e.Kind {
	case InvRead:
		return fmt.Sprintf("x%d.read_%d", e.Var, e.Proc)
	case InvWrite:
		return fmt.Sprintf("x%d.write_%d(%d)", e.Var, e.Proc, e.Val)
	case InvTryCommit:
		return fmt.Sprintf("tryC_%d", e.Proc)
	case RespValue:
		return fmt.Sprintf("%d_%d", e.Val, e.Proc)
	case RespOK:
		return fmt.Sprintf("ok_%d", e.Proc)
	case RespCommit:
		return fmt.Sprintf("C_%d", e.Proc)
	case RespAbort:
		return fmt.Sprintf("A_%d", e.Proc)
	default:
		return fmt.Sprintf("event{%d,%d,%d,%d}", e.Proc, e.Kind, e.Var, e.Val)
	}
}

// Matches reports whether response r is a legal response to invocation
// inv for the same process, following the alphabet Σ_k of the paper: a
// read is answered by a value or an abort, a write by ok or abort, and
// tryC by commit or abort.
func Matches(inv, r Event) bool {
	if inv.Proc != r.Proc || !inv.Kind.IsInvocation() || !r.Kind.IsResponse() {
		return false
	}
	if r.Kind == RespAbort {
		return true
	}
	switch inv.Kind {
	case InvRead:
		return r.Kind == RespValue
	case InvWrite:
		return r.Kind == RespOK
	case InvTryCommit:
		return r.Kind == RespCommit
	default:
		return false
	}
}

// History is a finite sequence of events, the basic object of the
// paper's formalism. A History value is generally treated as immutable;
// operations return fresh slices.
type History []Event

// Clone returns a deep copy of the history.
func (h History) Clone() History {
	out := make(History, len(h))
	copy(out, h)
	return out
}

// Append returns a new history with the events appended. The receiver
// is not modified (beyond possible shared-capacity reuse being avoided
// by always copying).
func (h History) Append(events ...Event) History {
	out := make(History, 0, len(h)+len(events))
	out = append(out, h...)
	out = append(out, events...)
	return out
}

// Procs returns the sorted set of process identifiers appearing in the
// history.
func (h History) Procs() []Proc {
	seen := make(map[Proc]bool)
	var out []Proc
	for _, e := range h {
		if !seen[e.Proc] {
			seen[e.Proc] = true
			out = append(out, e.Proc)
		}
	}
	sortProcs(out)
	return out
}

// Vars returns the sorted set of t-variables read or written in the
// history.
func (h History) Vars() []TVar {
	seen := make(map[TVar]bool)
	var out []TVar
	for _, e := range h {
		if e.Kind == InvRead || e.Kind == InvWrite {
			if !seen[e.Var] {
				seen[e.Var] = true
				out = append(out, e.Var)
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Projection returns H|p_k: the longest subsequence of the history
// consisting of events of process p.
func (h History) Projection(p Proc) History {
	var out History
	for _, e := range h {
		if e.Proc == p {
			out = append(out, e)
		}
	}
	return out
}

// String renders the history as a space-separated event sequence.
func (h History) String() string {
	parts := make([]string, len(h))
	for i, e := range h {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

func sortProcs(ps []Proc) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j] < ps[j-1]; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}
