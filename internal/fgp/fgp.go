// Package fgp implements the paper's global-progress TM automaton Fgp
// (§6): states are tuples (Status, CP, Val, f) and transitions follow
// the paper's rules. The automaton ensures opacity and global progress
// in any fault-prone system (Theorem 3).
//
// Two variants are provided.
//
//   - Faithful follows the preprint's transition rules literally: a
//     write invocation updates Val[k][j] immediately, and an abort
//     response leaves Val unchanged. As the package tests demonstrate,
//     this combination lets a process observe a value written by one of
//     its own *aborted* transactions (write-invoke, receive A because a
//     concurrent commit set the status to 'a', then read the leftover
//     value in a fresh transaction), violating opacity. The variant is
//     kept because it reproduces Figure 15's state space exactly and
//     documents the preprint's subtlety.
//
//   - Corrected additionally keeps the committed snapshot Com in the
//     state and restores Val[k] := Com on every abort response. This is
//     the minimal repair that makes the opacity argument of Theorem 3
//     go through; all Theorem 3 experiments use it.
//
// A further reading note: the preprint's formal commit rule sets
// Status[k'] = 'a' for *every* other process, while the prose says only
// the members of the concurrent set CP are demoted. Only the prose
// semantics admits the paper's own example history Hex (Figure 16) —
// under the formal rule p3's first read would have to abort — so both
// variants implement the prose semantics.
package fgp

import (
	"fmt"
	"strings"

	"livetm/internal/automaton"
	"livetm/internal/model"
)

// Variant selects between the literal preprint transition rules and
// the opacity-preserving repair. See the package comment.
type Variant int

// Automaton variants.
const (
	Faithful Variant = iota + 1
	Corrected
)

// String returns the variant name.
func (v Variant) String() string {
	switch v {
	case Faithful:
		return "faithful"
	case Corrected:
		return "corrected"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Automaton is an instance of Fgp for a fixed process count and
// t-variable count. Processes are 1..NProcs; t-variables 0..NVars-1.
type Automaton struct {
	NProcs  int
	NVars   int
	Variant Variant
}

// New returns an Fgp instance. NProcs and NVars must be positive.
func New(nProcs, nVars int, variant Variant) (*Automaton, error) {
	if nProcs <= 0 || nVars <= 0 {
		return nil, fmt.Errorf("fgp: need positive process and variable counts, got %d, %d", nProcs, nVars)
	}
	if nProcs > model.MaxProc || nVars > model.MaxTVar {
		return nil, fmt.Errorf("fgp: %d processes and %d variables, above model.MaxProc (%d) or model.MaxTVar (%d)", nProcs, nVars, model.MaxProc, model.MaxTVar)
	}
	if variant != Faithful && variant != Corrected {
		return nil, fmt.Errorf("fgp: unknown variant %d", int(variant))
	}
	return &Automaton{NProcs: nProcs, NVars: nVars, Variant: variant}, nil
}

// State is an Fgp state (Status, CP, Val, f), plus the committed
// snapshot Com in the Corrected variant. States are immutable; Step
// returns fresh values.
type State struct {
	status  []byte          // per process: 'c' or 'a'
	cp      []bool          // per process: membership in CP
	val     [][]model.Value // val[k][j]: process k's view of x_j
	com     []model.Value   // committed snapshot (Corrected only, else nil)
	pending []model.Event   // f: pending invocation per process; Kind==0 is ⊥
}

// Initial returns s0: all statuses 'c', CP empty, all values 0, no
// pending invocations.
func (a *Automaton) Initial() *State {
	s := &State{
		status:  make([]byte, a.NProcs),
		cp:      make([]bool, a.NProcs),
		val:     make([][]model.Value, a.NProcs),
		pending: make([]model.Event, a.NProcs),
	}
	for k := range s.status {
		s.status[k] = 'c'
		s.val[k] = make([]model.Value, a.NVars)
	}
	if a.Variant == Corrected {
		s.com = make([]model.Value, a.NVars)
	}
	return s
}

func (s *State) clone() *State {
	c := &State{
		status:  append([]byte(nil), s.status...),
		cp:      append([]bool(nil), s.cp...),
		val:     make([][]model.Value, len(s.val)),
		pending: append([]model.Event(nil), s.pending...),
	}
	for k := range s.val {
		c.val[k] = append([]model.Value(nil), s.val[k]...)
	}
	if s.com != nil {
		c.com = append([]model.Value(nil), s.com...)
	}
	return c
}

// Key canonically encodes the state; states are equal iff keys are.
func (s *State) Key() string {
	var b strings.Builder
	b.Write(s.status)
	b.WriteByte('|')
	for _, in := range s.cp {
		if in {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	b.WriteByte('|')
	for _, row := range s.val {
		for _, v := range row {
			fmt.Fprintf(&b, "%d,", v)
		}
		b.WriteByte(';')
	}
	if s.com != nil {
		b.WriteByte('|')
		for _, v := range s.com {
			fmt.Fprintf(&b, "%d,", v)
		}
	}
	b.WriteByte('|')
	for _, e := range s.pending {
		if e.Kind == 0 {
			b.WriteString("_;")
		} else {
			b.WriteString(e.String())
			b.WriteByte(';')
		}
	}
	return b.String()
}

// String renders the state in the paper's tuple notation, e.g.
// "(c, {p1}, 1, f(p1)=x0.write_1(1))" for the single-process instance.
func (s *State) String() string {
	var parts []string
	parts = append(parts, string(s.status))
	var cps []string
	for k, in := range s.cp {
		if in {
			cps = append(cps, fmt.Sprintf("p%d", k+1))
		}
	}
	parts = append(parts, "{"+strings.Join(cps, ",")+"}")
	var vals []string
	for _, row := range s.val {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = fmt.Sprintf("%d", v)
		}
		vals = append(vals, strings.Join(cells, " "))
	}
	parts = append(parts, "["+strings.Join(vals, "; ")+"]")
	var fs []string
	for k, e := range s.pending {
		if e.Kind != 0 {
			fs = append(fs, fmt.Sprintf("f(p%d)=%s", k+1, e))
		}
	}
	if len(fs) == 0 {
		fs = append(fs, "f=⊥")
	}
	parts = append(parts, strings.Join(fs, ","))
	return "(" + strings.Join(parts, ", ") + ")"
}

func (a *Automaton) inRange(e model.Event) bool {
	if e.Proc < 1 || int(e.Proc) > a.NProcs {
		return false
	}
	switch e.Kind {
	case model.InvRead, model.InvWrite:
		return e.Var >= 0 && int(e.Var) < a.NVars
	default:
		return true
	}
}

// Step applies event e to state s, returning the successor state, or
// false when e is not enabled in s.
func (a *Automaton) Step(s *State, e model.Event) (*State, bool) {
	if !a.inRange(e) {
		return nil, false
	}
	k := int(e.Proc) - 1
	switch e.Kind {
	case model.InvWrite:
		if s.pending[k].Kind != 0 {
			return nil, false
		}
		n := s.clone()
		n.cp[k] = true
		n.val[k][e.Var] = e.Val
		n.pending[k] = e
		return n, true

	case model.InvRead:
		if s.pending[k].Kind != 0 {
			return nil, false
		}
		n := s.clone()
		n.cp[k] = true
		n.pending[k] = e
		return n, true

	case model.InvTryCommit:
		if s.pending[k].Kind != 0 {
			return nil, false
		}
		n := s.clone()
		n.cp[k] = true
		n.pending[k] = e
		return n, true

	case model.RespOK:
		if s.status[k] != 'c' || s.pending[k].Kind != model.InvWrite {
			return nil, false
		}
		n := s.clone()
		n.pending[k] = model.Event{}
		return n, true

	case model.RespValue:
		if s.status[k] != 'c' || s.pending[k].Kind != model.InvRead {
			return nil, false
		}
		if e.Val != s.val[k][s.pending[k].Var] {
			return nil, false
		}
		n := s.clone()
		n.pending[k] = model.Event{}
		return n, true

	case model.RespCommit:
		if s.status[k] != 'c' || s.pending[k].Kind != model.InvTryCommit {
			return nil, false
		}
		n := s.clone()
		for j := range n.status {
			if j != k && n.cp[j] {
				n.status[j] = 'a'
			}
			n.cp[j] = false
			copy(n.val[j], s.val[k])
		}
		if n.com != nil {
			copy(n.com, s.val[k])
		}
		n.pending[k] = model.Event{}
		return n, true

	case model.RespAbort:
		if s.status[k] != 'a' || s.pending[k].Kind == 0 {
			return nil, false
		}
		n := s.clone()
		n.status[k] = 'c'
		n.pending[k] = model.Event{}
		if a.Variant == Corrected {
			copy(n.val[k], n.com)
		}
		return n, true

	default:
		return nil, false
	}
}

// IOAutomaton adapts the instance to the generic automaton kit.
func (a *Automaton) IOAutomaton() *automaton.Automaton {
	return &automaton.Automaton{
		Initial: a.Initial(),
		Step: func(s automaton.State, e model.Event) (automaton.State, bool) {
			fs, ok := s.(*State)
			if !ok {
				return nil, false
			}
			return a.Step(fs, e)
		},
	}
}

// Alphabet returns every event over the instance's processes and
// t-variables with values drawn from vals, suitable for reachability
// exploration of small instances.
func (a *Automaton) Alphabet(vals []model.Value) []model.Event {
	var out []model.Event
	for k := 1; k <= a.NProcs; k++ {
		p := model.Proc(k)
		for j := 0; j < a.NVars; j++ {
			x := model.TVar(j)
			out = append(out, model.Read(p, x))
			for _, v := range vals {
				out = append(out, model.Write(p, x, v))
			}
		}
		out = append(out, model.TryCommit(p))
		for _, v := range vals {
			out = append(out, model.ValueResp(p, v))
		}
		out = append(out, model.OK(p), model.Commit(p), model.Abort(p))
	}
	return out
}
