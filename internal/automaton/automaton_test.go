package automaton

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"livetm/internal/model"
)

// counterState is a toy automaton state for kit tests: a saturating
// counter driven by read invocations (+1) and abort events (reset).
type counterState int

func (c counterState) Key() string { return strconv.Itoa(int(c)) }

func counterAutomaton(max int) *Automaton {
	return &Automaton{
		Initial: counterState(0),
		Step: func(s State, e model.Event) (State, bool) {
			c := s.(counterState)
			switch e.Kind {
			case model.InvRead:
				if int(c) >= max {
					return nil, false
				}
				return c + 1, true
			case model.RespAbort:
				return counterState(0), true
			default:
				return nil, false
			}
		},
	}
}

func TestReplay(t *testing.T) {
	a := counterAutomaton(3)
	s, err := a.Replay(model.History{model.Read(1, 0), model.Read(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if s.(counterState) != 2 {
		t.Errorf("state = %v, want 2", s)
	}
}

func TestReplayRejects(t *testing.T) {
	a := counterAutomaton(1)
	h := model.History{model.Read(1, 0), model.Read(1, 0)}
	_, err := a.Replay(h)
	var rej *RejectedEventError
	if !errors.As(err, &rej) {
		t.Fatalf("error = %v, want RejectedEventError", err)
	}
	if rej.Index != 1 {
		t.Errorf("rejected index = %d, want 1", rej.Index)
	}
	if a.IsHistory(h) {
		t.Error("IsHistory must be false for a rejected history")
	}
	if !a.IsHistory(h[:1]) {
		t.Error("prefix within bounds must be a history")
	}
}

func TestExplore(t *testing.T) {
	a := counterAutomaton(4)
	alphabet := []model.Event{model.Read(1, 0), model.Abort(1)}
	states, err := Explore(a, alphabet, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 5 { // 0..4
		t.Errorf("reachable = %d states, want 5", len(states))
	}
	if states[0].Key() != "0" {
		t.Errorf("first state must be the initial state, got %s", states[0].Key())
	}
}

func TestExploreLimit(t *testing.T) {
	a := counterAutomaton(1 << 20)
	alphabet := []model.Event{model.Read(1, 0)}
	_, err := Explore(a, alphabet, 10)
	if !errors.Is(err, ErrExploreLimit) {
		t.Errorf("error = %v, want ErrExploreLimit", err)
	}
}

func TestDOT(t *testing.T) {
	a := counterAutomaton(2)
	alphabet := []model.Event{model.Read(1, 0), model.Abort(1)}
	states, err := Explore(a, alphabet, 0)
	if err != nil {
		t.Fatal(err)
	}
	edges := Edges(a, states, alphabet)
	dot := DOT(states, edges)
	for _, want := range []string{"digraph", "s1 [shape=doublecircle]", "s1 -> s2", `label="x0.read_1"`, "}"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestEdges(t *testing.T) {
	a := counterAutomaton(2)
	alphabet := []model.Event{model.Read(1, 0), model.Abort(1)}
	states, err := Explore(a, alphabet, 0)
	if err != nil {
		t.Fatal(err)
	}
	edges := Edges(a, states, alphabet)
	// States 0,1,2. Edges: 0-r->1, 1-r->2, 0-A->0, 1-A->0, 2-A->0.
	if len(edges) != 5 {
		t.Errorf("edges = %d, want 5", len(edges))
	}
	selfAborts := 0
	for _, e := range edges {
		if e.Event.Kind == model.RespAbort && e.To.Key() != "0" {
			t.Errorf("abort must reset to 0, got %s", e.To.Key())
		}
		if e.Event.Kind == model.RespAbort && e.From.Key() == "0" {
			selfAborts++
		}
	}
	if selfAborts != 1 {
		t.Errorf("self-abort edges = %d, want 1", selfAborts)
	}
}

// IsHistory reports whether h is a history of the automaton, i.e.
// every event is enabled in sequence from the initial state.
func (a *Automaton) IsHistory(h model.History) bool {
	_, err := a.Replay(h)
	return err == nil
}
