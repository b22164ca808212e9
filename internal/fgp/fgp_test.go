package fgp

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"livetm/internal/automaton"
	"livetm/internal/model"
	"livetm/internal/safety"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1, Faithful); err == nil {
		t.Error("zero processes must be rejected")
	}
	if _, err := New(1, 0, Faithful); err == nil {
		t.Error("zero variables must be rejected")
	}
	if _, err := New(1, 1, Variant(0)); err == nil {
		t.Error("zero variant must be rejected")
	}
	if Faithful.String() != "faithful" || Corrected.String() != "corrected" {
		t.Error("variant names")
	}
}

// TestFig15States reproduces Figure 15: the Fgp instance for one
// process and one binary t-variable has exactly the 10 states the
// paper lists.
func TestFig15States(t *testing.T) {
	a, err := New(1, 1, Faithful)
	if err != nil {
		t.Fatal(err)
	}
	states, err := automaton.Explore(a.IOAutomaton(), a.Alphabet([]model.Value{0, 1}), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 10 {
		for _, s := range states {
			t.Logf("state: %s", s.(*State))
		}
		t.Fatalf("reachable states = %d, want 10", len(states))
	}

	// Check the 10 states are exactly the listed tuples
	// (status, CP, val, f). Encode each as "status|cp|val|f".
	want := map[string]bool{
		"c|∅|0|⊥":       true, // s1
		"c|{p1}|0|w(0)": true, // s2
		"c|{p1}|1|w(1)": true, // s3
		"c|{p1}|0|r":    true, // s4
		"c|{p1}|0|tryC": true, // s5
		"c|{p1}|1|⊥":    true, // s6
		"c|{p1}|0|⊥":    true, // s7
		"c|{p1}|1|r":    true, // s8
		"c|{p1}|1|tryC": true, // s9
		"c|∅|1|⊥":       true, // s10
	}
	for _, as := range states {
		s := as.(*State)
		key := encodeFig15(s)
		if !want[key] {
			t.Errorf("unexpected reachable state %s (encoded %q)", s, key)
		}
		delete(want, key)
	}
	for k := range want {
		t.Errorf("listed state %q not reached", k)
	}
}

func encodeFig15(s *State) string {
	var b strings.Builder
	b.WriteByte(s.Status(1))
	b.WriteByte('|')
	if s.InCP(1) {
		b.WriteString("{p1}")
	} else {
		b.WriteString("∅")
	}
	b.WriteByte('|')
	if s.Val(1, 0) == 0 {
		b.WriteByte('0')
	} else {
		b.WriteByte('1')
	}
	b.WriteByte('|')
	if e, ok := s.Pending(1); ok {
		switch e.Kind {
		case model.InvRead:
			b.WriteString("r")
		case model.InvWrite:
			if e.Val == 0 {
				b.WriteString("w(0)")
			} else {
				b.WriteString("w(1)")
			}
		case model.InvTryCommit:
			b.WriteString("tryC")
		}
	} else {
		b.WriteString("⊥")
	}
	return b.String()
}

// TestFig15SingleProcessNeverAborts checks the paper's remark that the
// single-process instance has no abort events.
func TestFig15SingleProcessNeverAborts(t *testing.T) {
	a, _ := New(1, 1, Faithful)
	states, err := automaton.Explore(a.IOAutomaton(), a.Alphabet([]model.Value{0, 1}), 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range automaton.Edges(a.IOAutomaton(), states, a.Alphabet([]model.Value{0, 1})) {
		if tr.Event.Kind == model.RespAbort {
			t.Fatalf("abort transition found from %s", tr.From.(*State))
		}
	}
}

// TestTwoProcStateSpaceStable pins the reachable state-space size of
// the two-process, one-binary-variable instance for both variants, so
// accidental changes to the transition rules are caught structurally,
// not just behaviorally.
func TestTwoProcStateSpaceStable(t *testing.T) {
	sizes := map[Variant]int{}
	for _, variant := range []Variant{Faithful, Corrected} {
		a, err := New(2, 1, variant)
		if err != nil {
			t.Fatal(err)
		}
		states, err := automaton.Explore(a.IOAutomaton(), a.Alphabet([]model.Value{0, 1}), 20000)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		sizes[variant] = len(states)
		// Structural invariants over the whole reachable space.
		for _, as := range states {
			s := as.(*State)
			for p := model.Proc(1); p <= 2; p++ {
				if st := s.Status(p); st != 'c' && st != 'a' {
					t.Fatalf("status %c out of domain", st)
				}
				if _, pending := s.Pending(p); pending && s.Status(p) == 'a' {
					continue // legal: demoted with an op in flight
				}
			}
		}
	}
	// The corrected variant tracks the committed snapshot, so its
	// space is at least as large as the faithful one.
	if sizes[Corrected] < sizes[Faithful] {
		t.Errorf("corrected space (%d) smaller than faithful (%d)", sizes[Corrected], sizes[Faithful])
	}
	t.Logf("reachable states: faithful=%d corrected=%d", sizes[Faithful], sizes[Corrected])
}

// hexHistory is the history Hex of Figure 16: three processes, two
// binary t-variables x (=x0) and y (=x1).
func hexHistory() model.History {
	const (
		x = model.TVar(0)
		y = model.TVar(1)
	)
	return model.History{
		model.Read(1, x), model.ValueResp(1, 0), // p1: x.r -> 0
		model.Write(2, y, 1),              // p2: y.w(1) pending
		model.Write(1, x, 1), model.OK(1), // p1: x.w(1)
		model.TryCommit(1), model.Commit(1), // p1: C (p2 in CP -> status a)
		model.Abort(2),                          // p2's pending write aborted
		model.Read(3, y), model.ValueResp(3, 0), // p3: y.r -> 0
		model.Write(3, y, 1), model.OK(3), // p3: y.w(1)
		model.Read(1, y), model.ValueResp(1, 0), // p1: y.r -> 0 (second txn)
		model.TryCommit(3), model.Commit(3), // p3: C (p1 in CP -> status a)
		model.TryCommit(1), model.Abort(1), // p1: A
		model.Read(2, y), model.ValueResp(2, 1), // p2: y.r -> 1
		model.Read(2, x), model.ValueResp(2, 1), // p2: x.r -> 1
		model.TryCommit(2), model.Commit(2), // p2: C
	}
}

// TestFig16Hex replays the paper's example history Hex through both
// variants; every event must be enabled in sequence.
func TestFig16Hex(t *testing.T) {
	for _, variant := range []Variant{Faithful, Corrected} {
		t.Run(variant.String(), func(t *testing.T) {
			a, err := New(3, 2, variant)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.IOAutomaton().Replay(hexHistory()); err != nil {
				t.Fatalf("Hex not a history of Fgp (%s): %v", variant, err)
			}
		})
	}
	// Sanity: Hex is opaque.
	res, err := safety.CheckOpacity(hexHistory())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("Hex must be opaque: %s", res.Reason)
	}
}

// TestCommitDemotesOnlyCP pins the prose semantics: a commit demotes
// only concurrent-set members. Under the literal formal rule p3 (which
// has not invoked anything) would be demoted too, and Hex would not
// replay; this test captures the distinction directly.
func TestCommitDemotesOnlyCP(t *testing.T) {
	a, _ := New(3, 1, Faithful)
	s := a.Initial()
	for _, e := range []model.Event{
		model.Read(1, 0), model.ValueResp(1, 0),
		model.Read(2, 0), model.ValueResp(2, 0),
		model.TryCommit(1), model.Commit(1),
	} {
		var ok bool
		s, ok = a.Step(s, e)
		if !ok {
			t.Fatalf("event %s not enabled", e)
		}
	}
	if got := s.Status(2); got != 'a' {
		t.Errorf("p2 was in CP: status = %c, want a", got)
	}
	if got := s.Status(3); got != 'c' {
		t.Errorf("p3 never invoked: status = %c, want c", got)
	}
	if got := s.Status(1); got != 'c' {
		t.Errorf("committer keeps status c, got %c", got)
	}
}

// TestFaithfulAnomaly demonstrates the preprint subtlety: under the
// Faithful variant a process can read a value written by its own
// aborted transaction, producing a non-opaque history.
func TestFaithfulAnomaly(t *testing.T) {
	a, _ := New(2, 1, Faithful)
	h := model.History{
		// p2 joins CP with a read, then p1 commits x:=1, demoting p2.
		model.Read(2, 0), model.ValueResp(2, 0),
		model.Write(1, 0, 1), model.OK(1),
		model.TryCommit(1), model.Commit(1),
		// p2's write invocation stores 5 into Val[2][0]; the response
		// is an abort (status 'a'), which leaves Val unchanged.
		model.Write(2, 0, 5), model.Abort(2),
		// p2's fresh transaction now reads the never-committed 5.
		model.Read(2, 0), model.ValueResp(2, 5),
	}
	if _, err := a.IOAutomaton().Replay(h); err != nil {
		t.Fatalf("anomaly history must be accepted by the faithful variant: %v", err)
	}
	res, err := safety.CheckOpacity(h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("the anomaly history must not be opaque")
	}

	// The corrected variant rejects the bad read: Val[2][0] was
	// restored to the committed snapshot (1) on abort.
	c, _ := New(2, 1, Corrected)
	if _, err := c.IOAutomaton().Replay(h); err == nil {
		t.Error("corrected variant must not accept the stale read")
	}
	good := append(h[:len(h)-1:len(h)-1], model.ValueResp(2, 1))
	if _, err := c.IOAutomaton().Replay(good); err != nil {
		t.Errorf("corrected variant must return the committed value instead: %v", err)
	}
}

func TestStepRejectsOutOfRange(t *testing.T) {
	a, _ := New(2, 1, Corrected)
	s := a.Initial()
	for _, e := range []model.Event{
		model.Read(3, 0),     // unknown process
		model.Read(1, 5),     // unknown variable
		model.Write(0, 0, 1), // invalid process id
		model.OK(1),          // no pending write
		model.Commit(1),      // no pending tryC
		model.Abort(1),       // status c
		model.ValueResp(1, 0),
	} {
		if _, ok := a.Step(s, e); ok {
			t.Errorf("event %s must not be enabled initially", e)
		}
	}
}

func TestStepRejectsDoubleInvocation(t *testing.T) {
	a, _ := New(1, 1, Corrected)
	s, ok := a.Step(a.Initial(), model.Read(1, 0))
	if !ok {
		t.Fatal("read invocation must be enabled")
	}
	if _, ok := a.Step(s, model.Write(1, 0, 1)); ok {
		t.Error("second invocation with one pending must be rejected")
	}
}

func TestReadValueMustMatchState(t *testing.T) {
	a, _ := New(1, 1, Corrected)
	s, _ := a.Step(a.Initial(), model.Read(1, 0))
	if _, ok := a.Step(s, model.ValueResp(1, 7)); ok {
		t.Error("a read response must carry Val[k][j]")
	}
	if _, ok := a.Step(s, model.ValueResp(1, 0)); !ok {
		t.Error("the correct value response must be enabled")
	}
}

func TestEngineBasicTransaction(t *testing.T) {
	e, err := NewEngine(2, 2, Corrected)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := e.Read(1, 0)
	if err != nil || !ok || v != 0 {
		t.Fatalf("Read = %d,%v,%v; want 0,true,nil", v, ok, err)
	}
	if ok, err := e.Write(1, 0, 7); err != nil || !ok {
		t.Fatalf("Write = %v,%v", ok, err)
	}
	v, ok, err = e.Read(1, 0)
	if err != nil || !ok || v != 7 {
		t.Fatalf("read own write = %d,%v,%v; want 7,true,nil", v, ok, err)
	}
	if ok, err := e.TryCommit(1); err != nil || !ok {
		t.Fatalf("TryCommit = %v,%v", ok, err)
	}
	// p2 reads the committed value.
	v, ok, err = e.Read(2, 0)
	if err != nil || !ok || v != 7 {
		t.Fatalf("p2 read = %d,%v,%v; want 7,true,nil", v, ok, err)
	}
}

func TestEngineConflictAbortsLoser(t *testing.T) {
	e, _ := NewEngine(2, 1, Corrected)
	if _, ok, _ := e.Read(1, 0); !ok {
		t.Fatal("p1 read")
	}
	if _, ok, _ := e.Read(2, 0); !ok {
		t.Fatal("p2 read")
	}
	if ok, _ := e.TryCommit(1); !ok {
		t.Fatal("first committer wins")
	}
	// p2 was in CP at p1's commit: its next operation aborts.
	if _, ok, _ := e.Read(2, 0); ok {
		t.Fatal("p2 must be aborted once after p1's commit")
	}
	// p2 retries and succeeds.
	if _, ok, _ := e.Read(2, 0); !ok {
		t.Fatal("p2's retry must proceed")
	}
	if ok, _ := e.TryCommit(2); !ok {
		t.Fatal("p2's retry must commit (no further conflict)")
	}
}

func TestEngineHistoryIsValid(t *testing.T) {
	e, _ := NewEngine(3, 2, Corrected)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		p := model.Proc(rng.Intn(3) + 1)
		switch rng.Intn(3) {
		case 0:
			_, _, _ = e.Read(p, model.TVar(rng.Intn(2)))
		case 1:
			_, _ = e.Write(p, model.TVar(rng.Intn(2)), model.Value(rng.Intn(4)))
		case 2:
			_, _ = e.TryCommit(p)
		}
	}
	h := e.History()
	if err := model.CheckWellFormed(h); err != nil {
		t.Fatalf("engine history not well-formed: %v", err)
	}
	a, _ := New(3, 2, Corrected)
	if _, err := a.IOAutomaton().Replay(h); err != nil {
		t.Fatalf("engine history must be a history of the automaton: %v", err)
	}
}

// TestTheorem3OpacityRandom checks opacity of corrected-variant
// histories over many random schedules (Theorem 3, safety half).
func TestTheorem3OpacityRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		e, _ := NewEngine(3, 2, Corrected)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 40; i++ {
			p := model.Proc(rng.Intn(3) + 1)
			switch rng.Intn(4) {
			case 0, 1:
				_, _, _ = e.Read(p, model.TVar(rng.Intn(2)))
			case 2:
				_, _ = e.Write(p, model.TVar(rng.Intn(2)), model.Value(rng.Intn(3)))
			case 3:
				_, _ = e.TryCommit(p)
			}
		}
		res, err := safety.CheckOpacity(e.History())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Holds {
			t.Fatalf("seed %d: corrected Fgp produced a non-opaque history: %s\n%s",
				seed, res.Reason, e.History())
		}
	}
}

// TestTheorem3GlobalProgress checks the liveness half of Theorem 3 in
// its operational form: whenever processes keep invoking operations
// and at least one keeps attempting to commit, commits keep happening.
func TestTheorem3GlobalProgress(t *testing.T) {
	e, _ := NewEngine(4, 2, Corrected)
	rng := rand.New(rand.NewSource(7))
	commits := 0
	for i := 0; i < 2000; i++ {
		p := model.Proc(rng.Intn(4) + 1)
		switch rng.Intn(4) {
		case 0, 1:
			_, _, _ = e.Read(p, model.TVar(rng.Intn(2)))
		case 2:
			_, _ = e.Write(p, model.TVar(rng.Intn(2)), model.Value(rng.Intn(3)))
		case 3:
			if ok, _ := e.TryCommit(p); ok {
				commits++
			}
		}
	}
	if commits < 100 {
		t.Errorf("only %d commits over 2000 steps; Fgp must keep committing", commits)
	}
}

// TestEngineHistoryPropertiesQuick drives the corrected engine with
// arbitrary op sequences derived from fuzz bytes and checks the
// structural invariants on every run: the history is well-formed, is
// accepted by the automaton, and every small prefix is opaque.
func TestEngineHistoryPropertiesQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) > 30 {
			raw = raw[:30]
		}
		e, err := NewEngine(3, 2, Corrected)
		if err != nil {
			return false
		}
		for _, c := range raw {
			p := model.Proc(c%3 + 1)
			switch (c / 3) % 4 {
			case 0, 1:
				_, _, err = e.Read(p, model.TVar(c%2))
			case 2:
				_, err = e.Write(p, model.TVar(c%2), model.Value(c%3))
			case 3:
				_, err = e.TryCommit(p)
			}
			if err != nil {
				return false
			}
		}
		h := e.History()
		if model.CheckWellFormed(h) != nil {
			return false
		}
		a, _ := New(3, 2, Corrected)
		if _, err := a.IOAutomaton().Replay(h); err != nil {
			return false
		}
		if len(h) > 36 {
			h = h[:36]
		}
		res, err := safety.CheckOpacity(h)
		return err == nil && res.Holds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestEngineAdversarialCrashCannotBlock shows crash resilience: p1
// stops forever mid-transaction, and p2 still commits (global
// progress in a crash-prone system).
func TestEngineAdversarialCrashCannotBlock(t *testing.T) {
	e, _ := NewEngine(2, 1, Corrected)
	if _, ok, _ := e.Read(1, 0); !ok {
		t.Fatal("p1 read")
	}
	// p1 crashes here: no more p1 operations, p1 stays in CP forever.
	for i := 0; i < 10; i++ {
		for {
			if _, ok, _ := e.Read(2, 0); !ok {
				continue // aborted once after p2's own commit; retry
			}
			break
		}
		if _, err := e.Write(2, 0, model.Value(i)); err != nil {
			t.Fatal(err)
		}
		if ok, err := e.TryCommit(2); err != nil {
			t.Fatal(err)
		} else if !ok {
			// Retry the whole transaction once; a second failure in a
			// two-process system with p1 crashed is a liveness bug.
			t.Fatalf("iteration %d: p2 could not commit despite running alone", i)
		}
	}
}

// Status returns process p's status, 'c' or 'a'.
func (s *State) Status(p model.Proc) byte { return s.status[p-1] }

// InCP reports whether p is in the concurrent set.
func (s *State) InCP(p model.Proc) bool { return s.cp[p-1] }

// Val returns process p's current view of t-variable x.
func (s *State) Val(p model.Proc, x model.TVar) model.Value { return s.val[p-1][x] }

// Pending returns p's pending invocation, or false if f(p) = ⊥.
func (s *State) Pending(p model.Proc) (model.Event, bool) {
	e := s.pending[p-1]
	return e, e.Kind != 0
}
