package safety

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"livetm/internal/model"
)

// The reference the front door is held to: a whole-history witness
// search written against the model's own LegalInState, WriteSet and
// Snapshot — none of the segment kernel's compiled form. It walks the
// linear extensions of the real-time order, branches over both
// completions of every commit-pending transaction, and returns the
// first serialization it finds or the deepest obstacle. The pruned
// variant discards a prefix as soon as a placed transaction is illegal
// and memoizes (placed-set, committed-state) pairs; the naive variant
// validates complete orders only. Both cap at 64 transactions.

// refResult is the reference's verdict, with the number of
// serialization prefixes it visited.
type refResult struct {
	Holds    bool
	Witness  []*model.Transaction
	Reason   string
	Explored int
}

// referenceOpacity is CheckOpacity's oracle.
func referenceOpacity(h model.History) (refResult, error) {
	txns, err := model.Transactions(h)
	if err != nil {
		return refResult{}, fmt.Errorf("opacity: %w", err)
	}
	return serialize(txns, true)
}

// referenceStrict is CheckStrictSerializability's oracle.
func referenceStrict(h model.History) (refResult, error) {
	hcom, err := model.CommittedProjection(h)
	if err != nil {
		return refResult{}, fmt.Errorf("strict serializability: %w", err)
	}
	txns, err := model.Transactions(hcom)
	if err != nil {
		return refResult{}, fmt.Errorf("strict serializability: %w", err)
	}
	return serialize(txns, true)
}

// referenceNaive is referenceOpacity without incremental pruning:
// complete orders are generated first and validated afterwards.
func referenceNaive(h model.History) (refResult, error) {
	txns, err := model.Transactions(h)
	if err != nil {
		return refResult{}, fmt.Errorf("opacity (naive): %w", err)
	}
	return serialize(txns, false)
}

// serialize searches for a legal linear extension of the real-time
// order over txns. With prune set, it discards prefixes as soon as a
// placed transaction is illegal; without, it only checks legality of
// complete orders (the naive variant).
// Commit-pending transactions branch over both completions.
func serialize(txns []*model.Transaction, prune bool) (refResult, error) {
	n := len(txns)
	if n > 64 {
		return refResult{}, ErrTooManyTransactions
	}
	if n == 0 {
		return refResult{Holds: true}, nil
	}

	// preds[i] is the bitmask of transactions that must precede i.
	preds := make([]uint64, n)
	for i, a := range txns {
		for j, b := range txns {
			if i != j && b.Precedes(a) {
				preds[i] |= 1 << uint(j)
			}
		}
	}

	s := &searcher{txns: txns, preds: preds, prune: prune, failed: make(map[string]bool)}
	order := make([]placement, 0, n)
	found := s.dfs(0, make(model.Snapshot), order)
	res := refResult{Holds: found, Explored: s.explored}
	if found {
		res.Witness = make([]*model.Transaction, n)
		for i, pl := range s.witness {
			t := txns[pl.idx]
			switch {
			case t.Status != model.Live:
				res.Witness[i] = t
			case pl.committed:
				res.Witness[i] = completedAs(t, model.Committed)
			default:
				res.Witness[i] = completedAs(t, model.Aborted)
			}
		}
		return res, nil
	}
	res.Reason = s.reason()
	return res, nil
}

// placement records one serialized transaction and, for commit-pending
// ones, the chosen completion.
type placement struct {
	idx       int
	committed bool
}

type searcher struct {
	txns     []*model.Transaction
	preds    []uint64
	prune    bool
	failed   map[string]bool // memo of (placed, state) prefixes known not to extend
	witness  []placement
	explored int
	lastErr  error // deepest legality violation seen, for diagnostics
	lastLen  int
}

func (s *searcher) dfs(placed uint64, state model.Snapshot, order []placement) bool {
	n := len(s.txns)
	if len(order) == n {
		if !s.prune {
			// The naive variant validates the complete order here.
			ordered := make([]*model.Transaction, n)
			for i, pl := range order {
				t := s.txns[pl.idx]
				if t.Status == model.Live {
					st := model.Aborted
					if pl.committed {
						st = model.Committed
					}
					t = completedAs(t, st)
				}
				ordered[i] = t
			}
			if err := model.LegalSequence(ordered); err != nil {
				s.note(err, n)
				return false
			}
		}
		s.witness = append([]placement(nil), order...)
		return true
	}
	// Memoization is sound only when pruning: with pruning, every
	// prefix reaching (placed, state) is already known legal, so
	// extendability depends only on (placed, state). The naive variant
	// validates whole orders at the leaves, where the prefix matters.
	var key string
	if s.prune {
		key = memoKey(placed, state)
		if s.failed[key] {
			return false
		}
	}
	for i := 0; i < n; i++ {
		bit := uint64(1) << uint(i)
		if placed&bit != 0 || s.preds[i]&^placed != 0 {
			continue
		}
		t := s.txns[i]
		commits := []bool{t.Status == model.Committed}
		if commitPending(t) {
			// Branch: complete the pending tryC as aborted, then as
			// committed.
			commits = []bool{false, true}
		}
		for _, asCommitted := range commits {
			s.explored++
			if s.prune {
				if err := model.LegalInState(t, state); err != nil {
					s.note(err, len(order))
					break // legality does not depend on the completion
				}
			}
			next := state
			if asCommitted {
				ws := t.WriteSet()
				if len(ws) > 0 {
					next = state.Clone()
					next.Apply(ws)
				}
			}
			if s.dfs(placed|bit, next, append(order, placement{idx: i, committed: asCommitted})) {
				return true
			}
		}
	}
	if s.prune {
		s.failed[key] = true
	}
	return false
}

func (s *searcher) note(err error, depth int) {
	if depth >= s.lastLen {
		s.lastLen = depth
		s.lastErr = err
	}
}

func (s *searcher) reason() string {
	ids := make([]string, len(s.txns))
	for i, t := range s.txns {
		ids[i] = t.ID()
	}
	msg := fmt.Sprintf("no legal real-time-preserving serialization of {%s} exists", strings.Join(ids, ", "))
	if s.lastErr != nil {
		msg += "; deepest obstacle: " + s.lastErr.Error()
	}
	return msg
}

// memoKey canonically encodes a search state. Only committed writes are
// in the snapshot, so two prefixes with the same placed set and the
// same resulting state are interchangeable.
func memoKey(placed uint64, state model.Snapshot) string {
	vars := make([]model.TVar, 0, len(state))
	for x := range state {
		vars = append(vars, x)
	}
	for i := 1; i < len(vars); i++ {
		for j := i; j > 0 && vars[j] < vars[j-1]; j-- {
			vars[j], vars[j-1] = vars[j-1], vars[j]
		}
	}
	buf := make([]byte, 0, 16+12*len(vars))
	buf = strconv.AppendUint(buf, placed, 16)
	buf = append(buf, '|')
	for _, x := range vars {
		buf = strconv.AppendInt(buf, int64(x), 10)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, int64(state[x]), 10)
		buf = append(buf, ',')
	}
	return string(buf)
}

// BenchmarkAblationOpacityChecker measures what legality pruning buys
// the reference search, and what the segment kernel behind the front
// door costs on the same history. Six pairwise-concurrent transactions
// all read 0 and write distinct values: only one can be serialized
// first, so pruning cuts every branch at depth ~2 while the naive
// search enumerates entire orders.
func BenchmarkAblationOpacityChecker(b *testing.B) {
	var h model.History
	for p := model.Proc(1); p <= 6; p++ {
		h = append(h, model.Read(p, 0), model.ValueResp(p, 0))
	}
	for p := model.Proc(1); p <= 6; p++ {
		h = append(h,
			model.Write(p, 0, model.Value(p)), model.OK(p),
			model.TryCommit(p), model.Commit(p))
	}
	for _, v := range []struct {
		name   string
		search func(model.History) (refResult, error)
	}{{"pruned", referenceOpacity}, {"naive", referenceNaive}} {
		b.Run(v.name, func(b *testing.B) {
			var explored int
			for i := 0; i < b.N; i++ {
				res, err := v.search(h)
				if err != nil {
					b.Fatal(err)
				}
				explored = res.Explored
			}
			b.ReportMetric(float64(explored), "prefixes")
		})
	}
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := CheckOpacity(h); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// FuzzCheckAgainstReference holds the front door to the reference on
// the kernel fuzzer's histories, for both properties: the same
// verdict; a witness that is legal, real-time-preserving and
// equivalent to the completed history; the same verdict again from the
// segment path, with the history padded past the search cap; and no
// refusal of a history within the cap. The committed corpus under
// testdata/fuzz holds one seed per feature the generator can produce.
func FuzzCheckAgainstReference(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			return // seven transactions never need more
		}
		checkFrontDoor(t, genSegment(data).h)
	})
}

// TestCheckAgainstReference runs the fuzz target's checks on seeded
// random histories.
func TestCheckAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	data := make([]byte, 64)
	for iter := 0; iter < 2000; iter++ {
		rng.Read(data)
		checkFrontDoor(t, genSegment(data).h)
	}
}

func checkFrontDoor(t *testing.T, h model.History) {
	t.Helper()
	for _, p := range []struct {
		name  string
		front func(model.History) (Result, error)
		ref   func(model.History) (refResult, error)
	}{
		{"opacity", CheckOpacity, referenceOpacity},
		{"strict serializability", CheckStrictSerializability, referenceStrict},
	} {
		want, err := p.ref(h)
		if err != nil {
			t.Fatalf("%s: reference: %v\n%s", p.name, err, h)
		}
		got, err := p.front(h)
		if err != nil {
			t.Fatalf("%s: %v\n%s", p.name, err, h)
		}
		if got.Holds != want.Holds {
			t.Fatalf("%s: front door holds=%v (%s), reference %v (%s)\n%s", p.name, got.Holds, got.Reason, want.Holds, want.Reason, h)
		}
		if got.Holds {
			judged := h
			if p.name != "opacity" {
				judged, _ = model.CommittedProjection(h)
			}
			checkWitness(t, judged, got.Witness)
		} else if !strings.HasPrefix(got.Reason, "no legal real-time-preserving serialization of {") {
			t.Fatalf("%s: reason %q", p.name, got.Reason)
		}
		long, err := p.front(padded(h))
		if err != nil || long.Holds != want.Holds {
			t.Fatalf("%s past the cap: holds=%v err=%v, reference %v\n%s", p.name, long.Holds, err, want.Holds, h)
		}
	}
}

// checkWitness requires the witness to be a legal serialization of h's
// transactions that preserves real-time order, each live transaction
// completed the way [18] allows: committed only from a pending tryC,
// with that tryC answered, and otherwise aborted as it stands.
func checkWitness(t *testing.T, h model.History, witness []*model.Transaction) {
	t.Helper()
	txns, err := model.Transactions(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(witness) != len(txns) {
		t.Fatalf("witness has %d transactions, the history %d\n%s", len(witness), len(txns), h)
	}
	byID := make(map[string]*model.Transaction, len(txns))
	for _, u := range txns {
		byID[u.ID()] = u
	}
	// The real-time order is the history's: a live transaction
	// precedes nothing, however the witness completes it.
	orig := make([]*model.Transaction, len(witness))
	for i, w := range witness {
		orig[i] = byID[w.ID()]
		delete(byID, w.ID())
		if orig[i] == nil {
			t.Fatalf("witness repeats or invents %s\n%s", w.ID(), h)
		}
	}
	for i, w := range witness {
		u := orig[i]
		ops := u.Ops
		switch {
		case u.Status != model.Live:
			if w.Status != u.Status {
				t.Fatalf("witness changes %s's status to %s", u.ID(), w.Status)
			}
		case w.Status == model.Committed:
			if !commitPending(u) {
				t.Fatalf("witness commits %s, which has no pending tryC", u.ID())
			}
			ops = append(slices.Clip(ops), model.Op{Kind: model.OpTryCommit})
		case w.Status != model.Aborted:
			t.Fatalf("witness leaves %s %s", u.ID(), w.Status)
		}
		if !slices.Equal(w.Ops, ops) {
			t.Fatalf("witness changes %s's operations: %v, want %v", u.ID(), w.Ops, ops)
		}
		for _, later := range orig[i+1:] {
			if later.Precedes(u) {
				t.Fatalf("witness puts %s before %s, which precedes it in real time\n%s", u.ID(), later.ID(), h)
			}
		}
	}
	if err := model.LegalSequence(witness); err != nil {
		t.Fatalf("witness is not legal: %v\n%s", err, h)
	}
	// Without live transactions the history is its own completion, and
	// the witness history must be equivalent to it event for event.
	if !slices.ContainsFunc(txns, func(u *model.Transaction) bool { return u.Status == model.Live }) &&
		!model.SequentialHistory(witness).Equivalent(h) {
		t.Fatalf("witness history is not equivalent to the history\n%s", h)
	}
}
