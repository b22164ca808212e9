// Package automaton provides a small deterministic I/O-automaton kit
// used to realize the paper's formal model (§2.2): automata over
// invocation/response events with explicit states, history replay, and
// reachable-state enumeration for finite instances.
//
// The paper's automata are relations; the kit restricts attention to
// automata whose transition function is deterministic per event, which
// suffices for Fgp (each event has at most one successor state) while
// nondeterminism in *output choice* stays with the caller, who decides
// which response event to feed.
package automaton

import (
	"errors"
	"fmt"
	"strings"

	"livetm/internal/model"
)

// State is an automaton state. Key must be a canonical encoding:
// states are equal iff their keys are equal.
type State interface {
	Key() string
}

// Automaton is a deterministic-step I/O automaton.
type Automaton struct {
	// Initial is the start state s0.
	Initial State
	// Step returns the successor of s on event e, or false when e is
	// not enabled in s.
	Step func(s State, e model.Event) (State, bool)
}

// RejectedEventError reports the first event of a history that the
// automaton does not enable.
type RejectedEventError struct {
	Index int
	Event model.Event
	State State
}

func (e *RejectedEventError) Error() string {
	return fmt.Sprintf("event %d (%s) not enabled in state %s", e.Index, e.Event, e.State.Key())
}

// Replay runs the history through the automaton and returns the final
// state. It fails with a *RejectedEventError if some event is not
// enabled, making the history not a history of the automaton.
func (a *Automaton) Replay(h model.History) (State, error) {
	s := a.Initial
	for i, e := range h {
		next, ok := a.Step(s, e)
		if !ok {
			return s, &RejectedEventError{Index: i, Event: e, State: s}
		}
		s = next
	}
	return s, nil
}

// ErrExploreLimit is returned by Explore when the reachable state set
// exceeds the given limit (the automaton may be infinite-state).
var ErrExploreLimit = errors.New("automaton: reachable state set exceeds limit")

// Explore enumerates the states reachable from the initial state using
// events from the alphabet, in breadth-first order. It stops with
// ErrExploreLimit when more than limit states are found; limit <= 0
// means no limit (use only for instances known to be finite).
func Explore(a *Automaton, alphabet []model.Event, limit int) ([]State, error) {
	seen := map[string]bool{a.Initial.Key(): true}
	order := []State{a.Initial}
	queue := []State{a.Initial}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, e := range alphabet {
			next, ok := a.Step(s, e)
			if !ok {
				continue
			}
			k := next.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			order = append(order, next)
			queue = append(queue, next)
			if limit > 0 && len(order) > limit {
				return order, ErrExploreLimit
			}
		}
	}
	return order, nil
}

// Transitions enumerates all enabled (state, event, state') triples
// over the reachable states for the alphabet. It is intended for
// rendering small instances (e.g. Figure 15).
type Transition struct {
	From  State
	Event model.Event
	To    State
}

// Edges returns all transitions among the given states for the
// alphabet.
func Edges(a *Automaton, states []State, alphabet []model.Event) []Transition {
	var out []Transition
	for _, s := range states {
		for _, e := range alphabet {
			if next, ok := a.Step(s, e); ok {
				out = append(out, Transition{From: s, Event: e, To: next})
			}
		}
	}
	return out
}

// DOT renders states and transitions as a Graphviz digraph, with
// states numbered s1.. in the given order (s1 is drawn as the initial
// state). Figure 15 of the paper is DOT(states, edges) for the
// single-process Fgp instance.
func DOT(states []State, edges []Transition) string {
	id := make(map[string]int, len(states))
	for i, s := range states {
		id[s.Key()] = i + 1
	}
	var b strings.Builder
	b.WriteString("digraph automaton {\n  rankdir=LR;\n  node [shape=circle];\n")
	for i := range states {
		attrs := ""
		if i == 0 {
			attrs = " [shape=doublecircle]"
		}
		fmt.Fprintf(&b, "  s%d%s;\n", i+1, attrs)
	}
	for _, t := range edges {
		from, okF := id[t.From.Key()]
		to, okT := id[t.To.Key()]
		if !okF || !okT {
			continue // edge touches a state outside the listing
		}
		fmt.Fprintf(&b, "  s%d -> s%d [label=%q];\n", from, to, t.Event.String())
	}
	b.WriteString("}\n")
	return b.String()
}
