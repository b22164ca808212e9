package model

import "fmt"

// InitialValue is the value every t-variable holds before any
// transaction commits. The paper's automaton Fgp and all of its example
// histories start t-variables at 0.
const InitialValue Value = 0

// Snapshot is the committed state of the t-variables at a point of a
// sequential history: the value each t-variable would return to a
// freshly started transaction. Missing variables hold InitialValue.
type Snapshot map[TVar]Value

// Get returns the value of x, defaulting to InitialValue.
func (s Snapshot) Get(x TVar) Value {
	if v, ok := s[x]; ok {
		return v
	}
	return InitialValue
}

// Clone returns a copy of the snapshot.
func (s Snapshot) Clone() Snapshot {
	out := make(Snapshot, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Apply installs the write set of a committed transaction.
func (s Snapshot) Apply(writes map[TVar]Value) {
	for x, v := range writes {
		s[x] = v
	}
}

// IllegalReadError reports the first read that violates the semantics
// of its t-variable in a candidate sequential history.
type IllegalReadError struct {
	Txn      string // transaction ID
	Var      TVar
	Got      Value // value the read returned in the history
	Expected Value // value the t-variable held at that point
}

func (e *IllegalReadError) Error() string {
	return fmt.Sprintf("transaction %s: read of x%d returned %d but the t-variable held %d",
		e.Txn, e.Var, e.Got, e.Expected)
}
