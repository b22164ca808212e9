package stm

import (
	"testing"

	"livetm/internal/model"
	"livetm/internal/sim"
)

// memTM is a trivial single-process TM used to test the recorder: it
// applies operations directly and aborts on demand.
type memTM struct {
	store     map[model.TVar]model.Value
	abortNext bool
}

func (m *memTM) Name() string { return "mem" }

func (m *memTM) Read(env *sim.Env, x model.TVar) (model.Value, Status) {
	if m.abortNext {
		m.abortNext = false
		return 0, Aborted
	}
	return m.store[x], OK
}

func (m *memTM) Write(env *sim.Env, x model.TVar, v model.Value) Status {
	if m.abortNext {
		m.abortNext = false
		return Aborted
	}
	m.store[x] = v
	return OK
}

func (m *memTM) TryCommit(env *sim.Env) Status {
	if m.abortNext {
		m.abortNext = false
		return Aborted
	}
	return OK
}

func TestStatusString(t *testing.T) {
	if OK.String() != "ok" || Aborted.String() != "aborted" {
		t.Error("status names")
	}
	if Status(0).String() != "status(?)" {
		t.Error("unknown status name")
	}
}

func TestRecorderHistory(t *testing.T) {
	rec := NewRecorder(&memTM{store: map[model.TVar]model.Value{}})
	if rec.Name() != "mem" {
		t.Errorf("Name = %q", rec.Name())
	}
	env := sim.Background(1)
	if _, st := rec.Read(env, 0); st != OK {
		t.Fatal("read")
	}
	if st := rec.Write(env, 0, 5); st != OK {
		t.Fatal("write")
	}
	if st := rec.TryCommit(env); st != OK {
		t.Fatal("commit")
	}
	h := rec.History()
	want := model.History{
		model.Read(1, 0), model.ValueResp(1, 0),
		model.Write(1, 0, 5), model.OK(1),
		model.TryCommit(1), model.Commit(1),
	}
	if len(h) != len(want) {
		t.Fatalf("history %v, want %v", h, want)
	}
	for i := range h {
		if h[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, h[i], want[i])
		}
	}
	if err := model.CheckWellFormed(h); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderAborts(t *testing.T) {
	m := &memTM{store: map[model.TVar]model.Value{}}
	rec := NewRecorder(m)
	env := sim.Background(2)
	m.abortNext = true
	if _, st := rec.Read(env, 0); st != Aborted {
		t.Fatal("expected abort")
	}
	h := rec.History()
	if len(h) != 2 || h[1] != model.Abort(2) {
		t.Fatalf("history = %v, want read + A_2", h)
	}
}

func TestRecorderHistoryIsCopy(t *testing.T) {
	rec := NewRecorder(&memTM{store: map[model.TVar]model.Value{}})
	env := sim.Background(1)
	rec.Read(env, 0)
	h := rec.History()
	h[0] = model.Abort(9)
	if rec.History()[0] != model.Read(1, 0) {
		t.Error("History must return a copy")
	}
}

func TestSummarize(t *testing.T) {
	h := model.NewBuilder().
		Read(1, 0, 0).Commit(1).
		Read(2, 0, 0).CommitAbort(2).
		Read(1, 0, 0).Commit(1).
		Raw(model.Read(3, 0)). // pending invocation
		History()
	s := Summarize(h)
	if s.Commits[1] != 2 || s.Commits[2] != 0 {
		t.Errorf("commits = %v", s.Commits)
	}
	if s.Aborts[2] != 1 {
		t.Errorf("aborts = %v", s.Aborts)
	}
	if !s.PendingInv[3] {
		t.Error("p3 has a pending invocation")
	}
	if s.PendingInv[1] {
		t.Error("p1 has no pending invocation")
	}
	if s.TotalCommits() != 2 {
		t.Errorf("total commits = %d, want 2", s.TotalCommits())
	}
	if s.Operations[1] != 4 { // 2 reads + 2 commits
		t.Errorf("p1 operations = %d, want 4", s.Operations[1])
	}
}

// TotalCommits sums commits across processes.
func (s Stats) TotalCommits() int {
	n := 0
	for _, c := range s.Commits {
		n += c
	}
	return n
}
