package model

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{InvRead, "read"},
		{InvWrite, "write"},
		{InvTryCommit, "tryC"},
		{RespValue, "val"},
		{RespOK, "ok"},
		{RespCommit, "C"},
		{RespAbort, "A"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}

func TestKindClassification(t *testing.T) {
	invs := []Kind{InvRead, InvWrite, InvTryCommit}
	resps := []Kind{RespValue, RespOK, RespCommit, RespAbort}
	for _, k := range invs {
		if !k.IsInvocation() {
			t.Errorf("%v should be an invocation", k)
		}
		if k.IsResponse() {
			t.Errorf("%v should not be a response", k)
		}
	}
	for _, k := range resps {
		if !k.IsResponse() {
			t.Errorf("%v should be a response", k)
		}
		if k.IsInvocation() {
			t.Errorf("%v should not be an invocation", k)
		}
	}
	if Kind(0).IsInvocation() || Kind(0).IsResponse() {
		t.Error("zero kind must be neither invocation nor response")
	}
}

func TestEventString(t *testing.T) {
	tests := []struct {
		e    Event
		want string
	}{
		{Read(1, 0), "x0.read_1"},
		{Write(2, 3, 5), "x3.write_2(5)"},
		{TryCommit(1), "tryC_1"},
		{ValueResp(1, 7), "7_1"},
		{OK(2), "ok_2"},
		{Commit(1), "C_1"},
		{Abort(2), "A_2"},
	}
	for _, tt := range tests {
		if got := tt.e.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestMatches(t *testing.T) {
	tests := []struct {
		name string
		inv  Event
		resp Event
		want bool
	}{
		{"read/value", Read(1, 0), ValueResp(1, 3), true},
		{"read/abort", Read(1, 0), Abort(1), true},
		{"read/ok", Read(1, 0), OK(1), false},
		{"read/commit", Read(1, 0), Commit(1), false},
		{"write/ok", Write(1, 0, 1), OK(1), true},
		{"write/abort", Write(1, 0, 1), Abort(1), true},
		{"write/value", Write(1, 0, 1), ValueResp(1, 1), false},
		{"tryC/commit", TryCommit(1), Commit(1), true},
		{"tryC/abort", TryCommit(1), Abort(1), true},
		{"tryC/ok", TryCommit(1), OK(1), false},
		{"cross-process", Read(1, 0), ValueResp(2, 3), false},
		{"resp-as-inv", Commit(1), Commit(1), false},
		{"inv-as-resp", Read(1, 0), Read(1, 0), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Matches(tt.inv, tt.resp); got != tt.want {
				t.Errorf("Matches(%v, %v) = %v, want %v", tt.inv, tt.resp, got, tt.want)
			}
		})
	}
}

func TestHistoryProjection(t *testing.T) {
	h := NewBuilder().Read(1, 0, 0).Read(2, 0, 0).Write(2, 0, 1).Commit(2).Write(1, 0, 1).CommitAbort(1).History()
	p1 := h.Projection(1)
	for _, e := range p1 {
		if e.Proc != 1 {
			t.Fatalf("projection on p1 contains event of p%d", e.Proc)
		}
	}
	if len(p1) != 6 { // read inv+resp, write inv+resp, tryC inv+abort
		t.Fatalf("p1 projection length = %d, want 6", len(p1))
	}
	p2 := h.Projection(2)
	if len(p2) != 6 {
		t.Fatalf("p2 projection length = %d, want 6", len(p2))
	}
	if len(h.Projection(3)) != 0 {
		t.Error("projection on absent process must be empty")
	}
}

func TestHistoryProcsAndVars(t *testing.T) {
	h := NewBuilder().Read(3, 5, 0).Write(1, 2, 1).Read(2, 5, 0).History()
	procs := h.Procs()
	if len(procs) != 3 || procs[0] != 1 || procs[1] != 2 || procs[2] != 3 {
		t.Errorf("Procs() = %v, want [1 2 3]", procs)
	}
	vars := h.Vars()
	if len(vars) != 2 || vars[0] != 2 || vars[1] != 5 {
		t.Errorf("Vars() = %v, want [2 5]", vars)
	}
}

func TestHistoryEquivalent(t *testing.T) {
	// Figure-1-style history and a sequentialized version: equivalent
	// because per-process projections coincide.
	concurrent := History{
		Read(1, 0), ValueResp(1, 0),
		Read(2, 0), ValueResp(2, 0),
		Write(2, 0, 1), OK(2),
		TryCommit(2), Commit(2),
		Write(1, 0, 1), OK(1),
		TryCommit(1), Abort(1),
	}
	sequential := History{
		Read(2, 0), ValueResp(2, 0),
		Write(2, 0, 1), OK(2),
		TryCommit(2), Commit(2),
		Read(1, 0), ValueResp(1, 0),
		Write(1, 0, 1), OK(1),
		TryCommit(1), Abort(1),
	}
	if !concurrent.Equivalent(sequential) {
		t.Error("histories with identical projections must be equivalent")
	}
	different := History{Read(1, 0), ValueResp(1, 1)}
	if concurrent.Equivalent(different) {
		t.Error("histories with different projections must not be equivalent")
	}
}

func TestHistoryEquivalentIsSymmetric(t *testing.T) {
	a := NewBuilder().Read(1, 0, 0).Commit(1).History()
	b := NewBuilder().Read(1, 0, 0).History()
	if a.Equivalent(b) || b.Equivalent(a) {
		t.Error("prefix must not be equivalent to its extension, in either direction")
	}
}

func TestHistoryCloneIndependence(t *testing.T) {
	h := NewBuilder().Read(1, 0, 0).History()
	c := h.Clone()
	c[0] = Read(2, 1)
	if h[0] != Read(1, 0) {
		t.Error("mutating a clone must not affect the original")
	}
}

func TestHistoryAppendDoesNotAlias(t *testing.T) {
	h := make(History, 0, 8)
	h = append(h, Read(1, 0))
	a := History(h).Append(ValueResp(1, 0))
	b := History(h).Append(Abort(1))
	if a[1] == b[1] {
		t.Error("Append must not share backing arrays between results")
	}
}

func TestHistoryString(t *testing.T) {
	h := NewBuilder().Read(1, 0, 0).Commit(1).History()
	s := h.String()
	for _, want := range []string{"x0.read_1", "0_1", "tryC_1", "C_1"} {
		if !strings.Contains(s, want) {
			t.Errorf("History.String() = %q missing %q", s, want)
		}
	}
}

// Property: projection preserves per-process order and captures exactly
// that process's events.
func TestProjectionProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		h := randomishHistory(raw)
		for _, p := range h.Procs() {
			proj := h.Projection(p)
			j := 0
			for _, e := range h {
				if e.Proc == p {
					if j >= len(proj) || proj[j] != e {
						return false
					}
					j++
				}
			}
			if j != len(proj) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomishHistory derives an arbitrary (not necessarily well-formed)
// history from raw fuzz bytes. It is intentionally unconstrained:
// projection and equivalence are defined on arbitrary event sequences.
func randomishHistory(raw []uint8) History {
	var h History
	for i, b := range raw {
		p := Proc(b%3 + 1)
		x := TVar(b % 2)
		v := Value(b % 4)
		switch (int(b) + i) % 7 {
		case 0:
			h = append(h, Read(p, x))
		case 1:
			h = append(h, Write(p, x, v))
		case 2:
			h = append(h, TryCommit(p))
		case 3:
			h = append(h, ValueResp(p, v))
		case 4:
			h = append(h, OK(p))
		case 5:
			h = append(h, Commit(p))
		default:
			h = append(h, Abort(p))
		}
	}
	return h
}

// TestProcTableGrowsToTheLargestID: a table holds entries up to the
// largest id asked for and no further, keeps what its entries hold as
// it grows, and has no entry for an id below 1.
func TestProcTableGrowsToTheLargestID(t *testing.T) {
	var tab ProcTable[int]
	for _, p := range []Proc{0, -1, math.MinInt16} {
		if tab.At(p) != nil || len(tab) != 0 {
			t.Fatalf("At(%d) gave an entry (table length %d)", p, len(tab))
		}
	}
	*tab.At(3) = 30
	*tab.At(1) = 10
	if len(tab) != 4 {
		t.Fatalf("length %d after ids 3 and 1, want 4", len(tab))
	}
	*tab.At(MaxProc) = 7
	if len(tab) != MaxProc+1 || tab[1] != 10 || tab[2] != 0 || tab[3] != 30 || tab[MaxProc] != 7 {
		t.Fatalf("after MaxProc: length %d, entries 1..3 %v, last %d", len(tab), tab[1:4], tab[MaxProc])
	}
	// A table cut back for reuse hands out zero entries again.
	tab = tab[:0]
	if got := *tab.At(3); got != 0 || len(tab) != 4 {
		t.Fatalf("a reused table gives entry 3 = %d at length %d", got, len(tab))
	}
}
