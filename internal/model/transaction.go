package model

import (
	"fmt"
	"strings"
)

// TxnStatus is the outcome of a transaction within a finite history.
type TxnStatus int

// Transaction outcomes. A transaction is Live when the history ends
// before the transaction commits or aborts (it is "neither committed
// nor aborted" in the paper's words); completion com(H) turns every
// Live transaction into an Aborted one.
const (
	Committed TxnStatus = iota + 1
	Aborted
	Live
)

// String returns the conventional name of the status.
func (s TxnStatus) String() string {
	switch s {
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	case Live:
		return "live"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// OpKind enumerates the kinds of completed transactional operations.
type OpKind int

// Operation kinds inside a transaction.
const (
	OpRead OpKind = iota + 1
	OpWrite
	OpTryCommit
)

// Op is one completed operation of a transaction: an invocation
// together with its response. Operations whose response was an abort
// terminate the transaction and carry Aborted=true.
type Op struct {
	Kind    OpKind
	Var     TVar
	Val     Value // value read (OpRead) or written (OpWrite)
	Aborted bool  // response was A_k
}

// String renders the op in the paper's shorthand, e.g. "r(x0)->3",
// "w(x0,1)", "tryC", with "!A" appended when the response was an abort.
func (o Op) String() string {
	var s string
	switch o.Kind {
	case OpRead:
		s = fmt.Sprintf("r(x%d)->%d", o.Var, o.Val)
		if o.Aborted {
			s = fmt.Sprintf("r(x%d)", o.Var)
		}
	case OpWrite:
		s = fmt.Sprintf("w(x%d,%d)", o.Var, o.Val)
	case OpTryCommit:
		s = "tryC"
	default:
		s = fmt.Sprintf("op(%d)", int(o.Kind))
	}
	if o.Aborted {
		s += "!A"
	}
	return s
}

// Transaction is a maximal transaction of one process within a history,
// as defined in §2.2 of the paper: a maximal run of the process's
// events containing no commit or abort except possibly as its last
// event.
type Transaction struct {
	Proc   Proc
	Seq    int // 0-based index among the process's transactions
	Status TxnStatus
	Ops    []Op

	// First and Last are indices into the source history of the
	// transaction's first and last event. They define the real-time
	// order. For a Live transaction with a pending invocation, Last is
	// the index of that invocation.
	First, Last int

	// PendingInv holds the pending invocation of a Live transaction
	// that ended mid-operation, if any. Completion answers it with an
	// abort.
	PendingInv *Event
}

// ID returns a stable human-readable identifier like "T1.0" (process 1,
// first transaction).
func (t *Transaction) ID() string { return fmt.Sprintf("T%d.%d", t.Proc, t.Seq) }

// String renders the transaction compactly, e.g.
// "T1.0[r(x0)->0 w(x0,1) tryC]:committed".
func (t *Transaction) String() string {
	parts := make([]string, len(t.Ops))
	for i, op := range t.Ops {
		parts[i] = op.String()
	}
	return fmt.Sprintf("%s[%s]:%s", t.ID(), strings.Join(parts, " "), t.Status)
}

// WriteSet returns the last acknowledged write per t-variable; only
// these take effect if the transaction commits.
func (t *Transaction) WriteSet() map[TVar]Value {
	out := make(map[TVar]Value)
	for _, op := range t.Ops {
		if op.Kind == OpWrite && !op.Aborted {
			out[op.Var] = op.Val
		}
	}
	return out
}

// Precedes reports whether t precedes u in the real-time order of the
// source history: t is committed or aborted and t's last event occurs
// before u's first event. Two transactions that do not precede each
// other either way are concurrent.
func (t *Transaction) Precedes(u *Transaction) bool {
	if t.Status == Live {
		return false
	}
	return t.Last < u.First
}

// wfError describes a well-formedness violation found by Transactions
// or CheckWellFormed.
type wfError struct {
	Index int
	Event Event
	Msg   string
}

func (e *wfError) Error() string {
	return fmt.Sprintf("event %d (%s): %s", e.Index, e.Event, e.Msg)
}

// procParse is one process's state while a history is parsed.
type procParse struct {
	// pending is 1 + the index of the process's unanswered invocation,
	// 0 when it has none.
	pending int
	inTxn   bool // the process has an open transaction

	// Transactions only: the process's completed operations (counted by
	// the first pass, then the next free slot of its run in the
	// operation slab), its transaction count, its open transaction.
	ops  int
	seq  int
	open *Transaction
}

// Parser parses histories into transactions like Transactions, but
// into storage it keeps: what Parse returns is valid only until the
// next call. It serves callers that parse one bounded window after
// another, as the streaming checkers do at every cut. The zero value
// is ready to use.
type Parser struct {
	index map[Proc]int32 // process -> position in procs: the one map a parse needs
	procs []procParse
	slab  []Transaction
	txns  []*Transaction
	ops   []Op
}

func (p *Parser) reset() {
	if p.index == nil {
		p.index = make(map[Proc]int32, 8)
		p.procs = make([]procParse, 0, 8)
	}
	clear(p.index)
	p.procs = p.procs[:0]
}

// of returns the process's state, valid until the next call.
func (p *Parser) of(proc Proc) *procParse {
	i, ok := p.index[proc]
	if !ok {
		i = int32(len(p.procs))
		p.index[proc] = i
		p.procs = append(p.procs, procParse{})
	}
	return &p.procs[i]
}

// step checks event i against the process's alphabet and advances the
// state over it.
func (s *procParse) step(h History, i int) error {
	e := h[i]
	switch {
	case e.Kind.IsInvocation():
		if s.pending != 0 {
			return &wfError{i, e, "invocation while a previous invocation is pending"}
		}
		s.pending = i + 1
		s.inTxn = true
	case e.Kind.IsResponse():
		if s.pending == 0 {
			if e.Kind == RespAbort && s.inTxn {
				s.inTxn = false // completion abort
				return nil
			}
			return &wfError{i, e, "response without a pending invocation"}
		}
		if inv := h[s.pending-1]; !Matches(inv, e) {
			return &wfError{i, e, fmt.Sprintf("response does not match invocation %s", inv)}
		}
		s.pending = 0
		if e.Kind == RespCommit || e.Kind == RespAbort {
			s.inTxn = false
		}
	default:
		return &wfError{i, e, "unknown event kind"}
	}
	return nil
}

// CheckWellFormed verifies that the history is a valid sequence over
// the per-process alphabets Σ_k: for every process, events strictly
// alternate invocation–response with matching pairs, starting with an
// invocation. A trailing unanswered invocation is permitted (the
// process is mid-operation when the history ends).
//
// One relaxation of Σ_k is accepted: an abort event with no pending
// invocation is legal when the process has an open transaction. This
// is the "completion abort" that com(H) appends to transactions whose
// last operation already returned; the paper defines completion at
// transaction granularity, above the event alphabet.
func CheckWellFormed(h History) error {
	var p Parser
	p.reset()
	for i, e := range h {
		if err := p.of(e.Proc).step(h, i); err != nil {
			return err
		}
	}
	return nil
}

// Transactions parses the history into its transactions, per process
// and in history order of first events. It returns an error when the
// history is not well-formed.
//
// The returned slice is ordered by the index of each transaction's
// first event, which makes iteration deterministic.
func Transactions(h History) ([]*Transaction, error) {
	var p Parser
	return p.Parse(h)
}

// Parse is Transactions into the parser's storage.
//
// A first pass checks well-formedness and counts, so the transactions
// and their operations are each sized once for the whole history: a
// process's operations occupy one run of the operation slab, in
// program order, and each transaction's Ops is its stretch of that
// run.
func (p *Parser) Parse(h History) ([]*Transaction, error) {
	p.reset()
	txnCount, opCount := 0, 0
	for i, e := range h {
		s := p.of(e.Proc)
		if e.Kind.IsInvocation() && !s.inTxn {
			txnCount++
		}
		if s.pending != 0 {
			s.ops++ // every answer to an invocation completes an operation
			opCount++
		}
		if err := s.step(h, i); err != nil {
			return nil, err
		}
	}
	if txnCount == 0 {
		return nil, nil
	}
	if cap(p.slab) < txnCount {
		p.slab = make([]Transaction, txnCount)
		p.txns = make([]*Transaction, 0, txnCount)
	}
	if cap(p.ops) < opCount {
		p.ops = make([]Op, opCount)
	}
	slab, txns, ops := p.slab[:txnCount], p.txns[:0], p.ops[:opCount]
	next := 0
	for i := range p.procs {
		s := &p.procs[i]
		next, s.ops = next+s.ops, next
		s.pending = 0
	}

	for i, e := range h {
		s := p.of(e.Proc)
		t := s.open
		if t == nil {
			// Well-formedness makes this an invocation.
			t = &slab[len(txns)]
			*t = Transaction{Proc: e.Proc, Seq: s.seq, Status: Live, First: i, Ops: ops[s.ops:s.ops]}
			s.seq++
			s.open = t
			txns = append(txns, t)
		}
		t.Last = i
		if e.Kind.IsInvocation() {
			s.pending = i + 1
			continue
		}
		answered := s.pending != 0
		var inv Event
		if answered {
			inv = h[s.pending-1]
			s.pending = 0
		}
		switch e.Kind {
		case RespValue:
			t.Ops = append(t.Ops, Op{Kind: OpRead, Var: inv.Var, Val: e.Val})
		case RespOK:
			t.Ops = append(t.Ops, Op{Kind: OpWrite, Var: inv.Var, Val: inv.Val})
		case RespCommit:
			t.Ops = append(t.Ops, Op{Kind: OpTryCommit})
			t.Status = Committed
		case RespAbort:
			if answered {
				op := Op{Aborted: true}
				switch inv.Kind {
				case InvRead:
					op.Kind, op.Var = OpRead, inv.Var
				case InvWrite:
					op.Kind, op.Var, op.Val = OpWrite, inv.Var, inv.Val
				case InvTryCommit:
					op.Kind = OpTryCommit
				}
				t.Ops = append(t.Ops, op)
			}
			t.Status = Aborted
		}
		if t.Status != Live {
			s.close()
		}
	}
	for i := range p.procs {
		s := &p.procs[i]
		if s.open == nil {
			continue
		}
		if s.pending != 0 {
			inv := h[s.pending-1]
			s.open.PendingInv = &inv
		}
		s.close()
	}
	return txns, nil
}

// close ends the process's open transaction: its operations are the
// stretch of the process's run it filled, clipped so that a caller's
// append cannot reach the next transaction's.
func (s *procParse) close() {
	t := s.open
	s.ops += len(t.Ops)
	t.Ops = t.Ops[:len(t.Ops):len(t.Ops)]
	s.open = nil
}

// CommittedProjection returns the longest subsequence of the history
// containing only events of committed transactions (the H_com of the
// strict-serializability definition).
func CommittedProjection(h History) (History, error) {
	txns, err := Transactions(h)
	if err != nil {
		return nil, err
	}
	keep := make([]bool, len(h))
	for _, t := range txns {
		if t.Status != Committed {
			continue
		}
		for i := t.First; i <= t.Last; i++ {
			if h[i].Proc == t.Proc {
				keep[i] = true
			}
		}
	}
	var out History
	for i, k := range keep {
		if k {
			out = append(out, h[i])
		}
	}
	return out, nil
}
