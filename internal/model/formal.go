//lint:allow(unused) the paper's formal definitions (legality, completion, sequential histories, equivalence), kept verbatim as the reference that safety's oracle tests and model's own tests hold the production checker to
package model

// LegalInState checks the transaction's reads against the committed
// snapshot it starts from, honoring reads of the transaction's own
// earlier writes. It returns nil when every completed read respects the
// semantics of its t-variable.
//
// This is the per-transaction core of the paper's legality definition:
// for every response v_k in the transaction, v is the value of the
// previous write to x within the transaction, or the value of x when
// the transaction starts.
func LegalInState(t *Transaction, start Snapshot) error {
	local := make(map[TVar]Value)
	for _, op := range t.Ops {
		if op.Aborted {
			// An op answered with an abort returns no value; there is
			// nothing to validate, and no later op exists.
			break
		}
		switch op.Kind {
		case OpRead:
			expected, wroteLocally := local[op.Var]
			if !wroteLocally {
				expected = start.Get(op.Var)
			}
			if op.Val != expected {
				return &IllegalReadError{Txn: t.ID(), Var: op.Var, Got: op.Val, Expected: expected}
			}
		case OpWrite:
			local[op.Var] = op.Val
		}
	}
	return nil
}

// LegalSequence checks that every transaction in the given order is
// legal when the transactions are executed sequentially in that order
// from the initial state: each transaction sees the writes of the
// committed transactions placed before it (its visible(T) in the
// paper's terms, with aborted transactions' writes discarded), plus its
// own earlier writes. It returns nil when the whole order is legal.
func LegalSequence(order []*Transaction) error {
	state := make(Snapshot)
	for _, t := range order {
		if err := LegalInState(t, state); err != nil {
			return err
		}
		if t.Status == Committed {
			state.Apply(t.WriteSet())
		}
	}
	return nil
}

// Complete returns com(H): the history extended with abort events for
// every transaction that is neither committed nor aborted, as in §2.4.
// A pending invocation is answered with an abort; a transaction whose
// last operation completed receives a standalone abort event.
//
// This is the paper's literal completion. The opacity checker in
// package safety deliberately does NOT use it: following the paper's
// opacity reference [18], it completes *commit-pending* transactions
// (live with a pending tryC) as either committed or aborted, which
// matters for helping TMs (see safety.CheckOpacity).
func Complete(h History) History {
	txns, err := Transactions(h)
	if err != nil {
		// A malformed history cannot be completed meaningfully;
		// returning it unchanged lets the caller's own well-formedness
		// check surface the error.
		return h.Clone()
	}
	out := h.Clone()
	for _, t := range txns {
		if t.Status == Live {
			out = append(out, Abort(t.Proc))
		}
	}
	return out
}

// SequentialHistory flattens an ordered list of transactions into a
// complete sequential history: each transaction's events appear
// contiguously, with Live transactions terminated by an abort (so the
// result is complete in the paper's sense).
func SequentialHistory(order []*Transaction) History {
	var out History
	for _, t := range order {
		for _, op := range t.Ops {
			switch op.Kind {
			case OpRead:
				out = append(out, Read(t.Proc, op.Var))
				if op.Aborted {
					out = append(out, Abort(t.Proc))
				} else {
					out = append(out, ValueResp(t.Proc, op.Val))
				}
			case OpWrite:
				out = append(out, Write(t.Proc, op.Var, op.Val))
				if op.Aborted {
					out = append(out, Abort(t.Proc))
				} else {
					out = append(out, OK(t.Proc))
				}
			case OpTryCommit:
				out = append(out, TryCommit(t.Proc))
				if op.Aborted {
					out = append(out, Abort(t.Proc))
				} else {
					out = append(out, Commit(t.Proc))
				}
			}
		}
		if t.Status == Live {
			if t.PendingInv != nil {
				out = append(out, *t.PendingInv)
			}
			out = append(out, Abort(t.Proc))
		}
	}
	return out
}

// IsSequential reports whether no two transactions of the history are
// concurrent to each other.
func IsSequential(h History) (bool, error) {
	txns, err := Transactions(h)
	if err != nil {
		return false, err
	}
	for i, t := range txns {
		for _, u := range txns[i+1:] {
			if !t.Precedes(u) && !u.Precedes(t) {
				return false, nil
			}
		}
	}
	return true, nil
}

// Equivalent reports whether h and other are equivalent in the paper's
// sense: for every process p, h|p == other|p. Only processes appearing
// in either history are considered.
func (h History) Equivalent(other History) bool {
	procs := make(map[Proc]bool)
	for _, e := range h {
		procs[e.Proc] = true
	}
	for _, e := range other {
		procs[e.Proc] = true
	}
	for p := range procs {
		a, b := h.Projection(p), other.Projection(p)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}
