package safety

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"livetm/internal/model"
)

// The kernel places commuting transactions without branching and
// memoizes; the reference below does neither. It walks every linear
// extension of the real-time order, both completions of every
// commit-pending transaction, through the model's own LegalInState,
// WriteSet and Snapshot — none of the kernel's compiled form — so the
// two agree only if the reduction loses and invents nothing.

// canonState renders a snapshot as a state: variables holding
// InitialValue are the same whether present or missing.
func canonState(s model.Snapshot) string {
	vars := make([]int, 0, len(s))
	for x, v := range s {
		if v != model.InitialValue {
			vars = append(vars, int(x))
		}
	}
	sort.Ints(vars)
	var b strings.Builder
	for _, x := range vars {
		fmt.Fprintf(&b, "x%d=%d ", x, s[model.TVar(x)])
	}
	return b.String()
}

func canonStates(states []model.Snapshot) []string {
	out := make([]string, len(states))
	for i, s := range states {
		out[i] = canonState(s)
	}
	sort.Strings(out)
	return out
}

// cloneStates copies the starts: the kernel consumes the ones it is
// handed.
func cloneStates(states []model.Snapshot) []model.Snapshot {
	out := make([]model.Snapshot, len(states))
	for i, s := range states {
		out[i] = s.Clone()
	}
	return out
}

// bruteFinals is the reference enumerator.
func bruteFinals(seg []*model.Transaction, starts []model.Snapshot, relaxed uint64) []string {
	full := uint64(1)<<uint(len(seg)) - 1
	set := map[string]bool{}
	var walk func(placed uint64, state model.Snapshot)
	walk = func(placed uint64, state model.Snapshot) {
		if placed == full {
			set[canonState(state)] = true
			return
		}
		for i, t := range seg {
			bit := uint64(1) << uint(i)
			if placed&bit != 0 {
				continue
			}
			enabled := true
			for j, u := range seg {
				if placed&(1<<uint(j)) == 0 && u.Precedes(t) {
					enabled = false
				}
			}
			if !enabled || (relaxed&bit == 0 && model.LegalInState(t, state) != nil) {
				continue
			}
			if t.Status != model.Committed {
				walk(placed|bit, state)
			}
			if t.Status == model.Committed || commitPending(t) {
				next := state.Clone()
				next.Apply(t.WriteSet())
				walk(placed|bit, next)
			}
		}
	}
	for _, s := range starts {
		walk(0, s)
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// genCase is one decoded test segment.
type genCase struct {
	h       model.History
	seg     []*model.Transaction
	relaxed uint64
	starts  []model.Snapshot
}

// genSegment decodes bytes into a well-formed history of at most seven
// transactions over one to four processes and one to three variables,
// a waiver mask and up to five start snapshots. It plays the history
// against a committed state so that most reads are legal: a read
// returns the reader's own write or the committed value at that moment
// (one in eight returns an arbitrary value), writes are fresh small
// values or increments of what the writer would read, and a tryC left
// unanswered may or may not have taken effect. Every byte string
// decodes to something, so the fuzzer and the seeded property test
// share it.
func genSegment(data []byte) genCase {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		at++
		return int(data[at-1])
	}
	procs := 1 + next()%4
	nvars := 1 + next()%3
	maxTxns := 1 + next()%7
	waive, waiveBits := next()%2 == 0, uint64(next())
	nstarts := 1 + next()%5

	base := model.Snapshot{}
	for x := 0; x < nvars; x++ {
		if v := next() % 4; v != 3 { // 3 leaves the variable missing, 0 stores an explicit initial value
			base[model.TVar(x)] = model.Value(v)
		}
	}
	committed := base.Clone()
	open := make([]map[model.TVar]model.Value, procs+1) // a process's buffered writes; nil when it has no open transaction
	stuck := make([]bool, procs+1)                      // left commit-pending
	opened := 0
	b := model.NewBuilder()
	for at < len(data) {
		p := 1 + next()%procs
		if stuck[p] {
			continue
		}
		if open[p] == nil {
			if opened == maxTxns {
				continue
			}
			opened++
			open[p] = map[model.TVar]model.Value{}
		}
		proc, x := model.Proc(p), model.TVar(next()%nvars)
		current, own := open[p][x]
		if !own {
			current = committed.Get(x)
		}
		switch act := next() % 16; {
		case act < 5:
			if next()%8 == 0 {
				current = model.Value(next() % 4)
			}
			b.Read(proc, x, current)
		case act < 9:
			v := current + 1
			if next()%2 == 0 {
				v = model.Value(1 + next()%3)
			}
			open[p][x] = v
			b.Write(proc, x, v)
		case act < 12:
			b.Commit(proc)
			committed.Apply(open[p])
			open[p] = nil
		case act == 12:
			b.CommitAbort(proc)
			open[p] = nil
		case act == 13:
			b.ReadAbort(proc, x)
			open[p] = nil
		case act == 14:
			b.WriteAbort(proc, x, current+1)
			open[p] = nil
		default:
			b.Raw(model.TryCommit(proc))
			if next()%2 == 0 {
				committed.Apply(open[p])
			}
			stuck[p] = true
		}
	}

	c := genCase{h: b.History()}
	seg, err := model.Transactions(c.h)
	if err != nil {
		panic(fmt.Sprintf("genSegment built a malformed history: %v\n%s", err, c.h))
	}
	c.seg = seg
	if waive {
		c.relaxed = waiveBits & (uint64(1)<<uint(len(seg)) - 1)
	}
	// Starts that differ only outside the segment's variables (100),
	// one that differs inside them, and one that is base again with an
	// initial value spelled out.
	with := func(x model.TVar, v model.Value) model.Snapshot {
		s := base.Clone()
		s[x] = v
		return s
	}
	c.starts = []model.Snapshot{base, with(100, 5), with(100, 6), with(0, base.Get(0)+1), with(101, model.InitialValue)}[:nstarts]
	return c
}

// testKernel is reused by every case, as a checker reuses its own
// from segment to segment.
var testKernel finalsKernel

// checkAgainstReference compares the kernel's finals with the
// reference as sets of states, and requires them free of duplicates
// and identically ordered on a second call.
func checkAgainstReference(t *testing.T, c genCase) []model.Snapshot {
	t.Helper()
	want := bruteFinals(c.seg, c.starts, c.relaxed)
	got, err := testKernel.feasibleFinals(c.seg, cloneStates(c.starts), c.relaxed)
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	if canon := canonStates(got); !slices.Equal(canon, want) {
		t.Fatalf("finals differ\nkernel:    %q\nreference: %q\nrelaxed %b starts %v\n%s", canon, want, c.relaxed, c.starts, c.h)
	}
	again, _ := testKernel.feasibleFinals(c.seg, cloneStates(c.starts), c.relaxed)
	if len(again) != len(got) {
		t.Fatalf("second call returned %d finals, first %d", len(again), len(got))
	}
	for i := range got {
		if canonState(got[i]) != canonState(again[i]) {
			t.Fatalf("finals order is not a function of the arguments: %q then %q", canonState(got[i]), canonState(again[i]))
		}
	}
	return got
}

func TestKernelFinalsEqualReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var nonEmpty, several, waived, pending, abortedOps, multiStart, ownReads int
	for iter := 0; iter < 4000; iter++ {
		data := make([]byte, 8+rng.Intn(72))
		rng.Read(data)
		c := genSegment(data)
		got := checkAgainstReference(t, c)

		if len(got) > 0 {
			nonEmpty++
		}
		if len(got) > len(c.starts) {
			several++
		}
		if c.relaxed != 0 {
			waived++
		}
		if len(c.starts) > 1 {
			multiStart++
		}
		for _, txn := range c.seg {
			if commitPending(txn) {
				pending++
			}
			wrote := map[model.TVar]bool{}
			for _, op := range txn.Ops {
				switch {
				case op.Aborted:
					abortedOps++
				case op.Kind == model.OpWrite:
					wrote[op.Var] = true
				case op.Kind == model.OpRead && wrote[op.Var]:
					ownReads++
				}
			}
		}

		// Holds is the decision CheckOpacity makes on the same history.
		finals, _ := testKernel.feasibleFinals(c.seg, []model.Snapshot{{}}, 0)
		res, err := CheckOpacity(c.h)
		if err != nil {
			t.Fatal(err)
		}
		if res.Holds != (len(finals) > 0) {
			t.Fatalf("CheckOpacity holds=%v, kernel finals from the initial state: %d\n%s", res.Holds, len(finals), c.h)
		}
	}
	for name, n := range map[string]int{
		"segments with a serialization": nonEmpty, "starts with several finals": several,
		"non-zero waiver masks": waived, "commit-pending transactions": pending,
		"operations answered by abort": abortedOps, "several starts": multiStart, "reads of own writes": ownReads,
	} {
		if n < 100 {
			t.Errorf("only %d %s: the property test is near-vacuous there", n, name)
		}
	}
}

// runKernel searches one segment on a private kernel and returns the
// finals with the number of prefixes it branched from.
func runKernel(seg []*model.Transaction, start model.Snapshot, relaxed uint64) (finals []string, branched int) {
	k := &finalsKernel{}
	if !k.compile(seg, relaxed) {
		return nil, 0
	}
	k.finals.reset(k.nw)
	k.memo.reset(k.nw)
	for v, x := range k.vars {
		k.vals[v] = start.Get(x)
	}
	k.search(0)
	for e := 0; e < k.finals.len(); e++ {
		_, written := k.finals.key(e)
		final := start.Clone()
		for v, val := range written {
			final[k.vars[v]] = val
		}
		finals = append(finals, canonState(final))
	}
	sort.Strings(finals)
	return finals, k.memo.len()
}

// TestKernelCommutingPlacement pins the reduction's two rules on
// hand-built segments: a transaction nothing unplaced can interfere
// with is placed without a branch, and kills the prefix when illegal.
func TestKernelCommutingPlacement(t *testing.T) {
	const x, y = model.TVar(0), model.TVar(1)
	// Two blind writers of y, concurrent with each other and with p1.
	racers := func(b *model.Builder) *model.Builder {
		return b.Write(2, y, 1).Write(3, y, 2).Commit(2).Commit(3)
	}
	cases := []struct {
		name     string
		h        model.History
		start    model.Snapshot
		relaxed  uint64
		finals   []string
		branched int
	}{
		{
			name:   "illegal read nobody can explain kills the prefix before the racers branch",
			h:      racers(model.NewBuilder().Raw(model.Read(1, x))).Raw(model.ValueResp(1, 1)).Commit(1).History(),
			finals: nil, branched: 0,
		},
		{
			name:   "the same read legal in the start state: placed, then the racers branch",
			h:      racers(model.NewBuilder().Raw(model.Read(1, x))).Raw(model.ValueResp(1, 1)).Commit(1).History(),
			start:  model.Snapshot{x: 1},
			finals: []string{"x0=1 x1=1 ", "x0=1 x1=2 "}, branched: 1,
		},
		{
			name:    "the same read waived",
			h:       racers(model.NewBuilder().Raw(model.Read(1, x))).Raw(model.ValueResp(1, 1)).Commit(1).History(),
			relaxed: 1, // p1 opens first
			finals:  []string{"x1=1 ", "x1=2 "}, branched: 1,
		},
		{
			name:   "a concurrent writer may explain the read: no shortcut, the search finds the order",
			h:      model.NewBuilder().Raw(model.Read(1, x)).Write(2, x, 1).Commit(2).Raw(model.ValueResp(1, 1)).Commit(1).History(),
			finals: []string{"x0=1 "}, branched: 1,
		},
		{
			name:   "a real-time successor cannot: the reader still commutes and dies",
			h:      model.NewBuilder().Read(1, x, 1).Commit(1).Write(2, x, 1).Commit(2).History(),
			finals: nil, branched: 0,
		},
		{
			name:   "disjoint chains are placed in one pass",
			h:      model.NewBuilder().Read(1, x, 0).Read(2, y, 0).Write(1, x, 1).Write(2, y, 1).Commit(1).Commit(2).Read(1, x, 1).Read(2, y, 1).Commit(2).Commit(1).History(),
			finals: []string{"x0=1 x1=1 "}, branched: 0,
		},
		{
			name:   "a commit-pending writer nobody depends on yields both completions without a branch",
			h:      model.NewBuilder().Write(1, y, 7).Raw(model.TryCommit(1)).Read(2, x, 0).Commit(2).History(),
			finals: []string{"", "x1=7 "}, branched: 0,
		},
		{
			name:   "a transaction that read back something other than its own write is legal nowhere",
			h:      model.NewBuilder().Write(1, x, 1).Read(1, x, 2).Commit(1).History(),
			finals: nil, branched: 0,
		},
		{
			name:    "unless its reads are waived",
			h:       model.NewBuilder().Write(1, x, 1).Read(1, x, 2).Commit(1).History(),
			relaxed: 1,
			finals:  []string{"x0=1 "}, branched: 0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seg, err := model.Transactions(c.h)
			if err != nil {
				t.Fatal(err)
			}
			if c.start == nil {
				c.start = model.Snapshot{}
			}
			finals, branched := runKernel(seg, c.start, c.relaxed)
			if !slices.Equal(finals, c.finals) || branched != c.branched {
				t.Errorf("finals %q after branching from %d prefixes, want %q after %d", finals, branched, c.finals, c.branched)
			}
			if want := bruteFinals(seg, []model.Snapshot{c.start}, c.relaxed); !slices.Equal(finals, want) {
				t.Errorf("the table disagrees with the reference: %q", want)
			}
		})
	}
}

// TestKernelFinalsReuseTheStarts pins where the finals land: in the
// slice the starts came in, without a final ever overwriting a start
// that a later final is still to be derived from.
func TestKernelFinalsReuseTheStarts(t *testing.T) {
	const x, y, z = model.TVar(0), model.TVar(1), model.TVar(2)
	// p1's write is commit-pending: every start has two finals.
	pending := model.NewBuilder().Write(1, y, 7).Raw(model.TryCommit(1)).Read(2, x, 0).Commit(2).History()
	// One committed increment of y from 0: one final per start.
	committed := model.NewBuilder().Read(1, y, 0).Write(1, y, 1).Commit(1).History()
	for _, tc := range []struct {
		name   string
		h      model.History
		starts []model.Snapshot
		want   []string
	}{
		{"one start, one final", committed, []model.Snapshot{{z: 3}}, []string{"x1=1 x2=3 "}},
		{"one start, two finals", pending, []model.Snapshot{{z: 3}}, []string{"x1=7 x2=3 ", "x2=3 "}},
		{"two starts, one final each", committed, []model.Snapshot{{z: 3}, {z: 4}}, []string{"x1=1 x2=3 ", "x1=1 x2=4 "}},
		// The first start's second final lands on the second start's slot
		// before the second start's finals are built.
		{"two starts, two finals each", pending, []model.Snapshot{{z: 3}, {z: 4}},
			[]string{"x1=7 x2=3 ", "x1=7 x2=4 ", "x2=3 ", "x2=4 "}},
		// The third start shares the first's owner, so its final is
		// derived from the first start's map after two finals were
		// written.
		{"a start that agrees with an earlier one outside the segment", pending, []model.Snapshot{{z: 3}, {z: 4}, {z: 3, y: 7}},
			[]string{"x1=7 x2=3 ", "x1=7 x2=4 ", "x2=3 ", "x2=4 "}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seg, err := model.Transactions(tc.h)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteFinals(seg, tc.starts, 0); !slices.Equal(tc.want, want) {
				t.Fatalf("the table disagrees with the reference: %q", want)
			}
			// Room for every final, so none escapes to a fresh slice.
			starts := append(make([]model.Snapshot, 0, 8), cloneStates(tc.starts)...)
			got, err := testKernel.feasibleFinals(seg, starts, 0)
			if err != nil {
				t.Fatal(err)
			}
			if canon := canonStates(got); !slices.Equal(canon, tc.want) {
				t.Fatalf("finals %q, want %q", canon, tc.want)
			}
			if &got[0] != &starts[0] {
				t.Error("the finals did not reuse the starts' storage")
			}
			maps := map[uintptr]int{}
			for i, f := range got {
				if j, dup := maps[reflect.ValueOf(f).Pointer()]; dup {
					t.Errorf("finals %d and %d share one map", j, i)
				}
				maps[reflect.ValueOf(f).Pointer()] = i
			}
		})
	}
}

// TestKeyTableIdentityIsExact drives the table with colliding hashes'
// worst case — many keys through growth — and keys that differ in one
// position only.
func TestKeyTableIdentityIsExact(t *testing.T) {
	var tab keyTable
	tab.reset(3)
	const n = 5000
	for i := 0; i < n; i++ {
		key := []model.Value{model.Value(i % 7), model.Value(i / 7), 0}
		if !tab.insert(uint64(i%3), key) {
			t.Fatalf("key %d refused as a duplicate", i)
		}
	}
	for i := 0; i < n; i++ {
		key := []model.Value{model.Value(i % 7), model.Value(i / 7), 0}
		if tab.insert(uint64(i%3), key) {
			t.Fatalf("key %d inserted twice", i)
		}
		key[2] = 1
		if !tab.insert(uint64(i%3), key) {
			t.Fatalf("key %d with one value changed taken for a duplicate", i)
		}
	}
	if tab.len() != 2*n {
		t.Fatalf("%d keys, want %d", tab.len(), 2*n)
	}
	tab.reset(0)
	if !tab.insert(1, nil) || tab.insert(1, nil) || !tab.insert(2, nil) {
		t.Fatal("zero-length values: identity must be the head alone")
	}
}

// FuzzFeasibleFinals is the property test with the fuzzer choosing
// the bytes. The committed corpus under testdata/fuzz holds one seed
// per feature the generator can produce.
func FuzzFeasibleFinals(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			return // seven transactions never need more
		}
		checkAgainstReference(t, genSegment(data))
	})
}

// collidingVars returns n t-variables, 0 and then the largest ids
// below MaxTVar that start their probe at variable 0's slot of a
// fresh varTable: every lookup among them walks one probe run.
func collidingVars(n int) []model.TVar {
	const mask = minVarSlots - 1
	home := varHash(0) & mask
	out := []model.TVar{0}
	for x := model.TVar(model.MaxTVar); len(out) < n; x-- {
		if varHash(x)&mask == home {
			out = append(out, x)
		}
	}
	return out
}

// TestKernelCollidingVariables holds the kernel's variable table to
// the reference where its probes collide: generated segments renamed
// onto colliding ids (the starts' outside variables too, which
// agreeOutside looks up) give the finals the reference does, and a
// segment of 2·minVarSlots colliding variables grows the table twice
// and still reads every write back.
func TestKernelCollidingVariables(t *testing.T) {
	xs := collidingVars(2 * minVarSlots)
	t.Run("generated segments", func(t *testing.T) {
		// genSegment's variables are 0..2 and its outside ones 100 and 101.
		rename := map[model.TVar]model.TVar{0: xs[1], 1: xs[2], 2: xs[3], 100: xs[4], 101: xs[5]}
		rng := rand.New(rand.NewSource(29))
		for iter := 0; iter < 1000; iter++ {
			data := make([]byte, 8+rng.Intn(72))
			rng.Read(data)
			c := genSegment(data)
			for i, e := range c.h {
				if e.Kind == model.InvRead || e.Kind == model.InvWrite {
					c.h[i].Var = rename[e.Var]
				}
			}
			seg, err := model.Transactions(c.h)
			if err != nil {
				t.Fatal(err)
			}
			c.seg = seg
			for i, s := range c.starts {
				renamed := model.Snapshot{}
				for x, v := range s {
					renamed[rename[x]] = v
				}
				c.starts[i] = renamed
			}
			checkAgainstReference(t, c)
		}
	})
	t.Run("growth", func(t *testing.T) {
		b := model.NewBuilder()
		for i, x := range xs {
			b.Write(1, x, model.Value(i+1))
		}
		b.Commit(1)
		for i, x := range xs {
			b.Read(2, x, model.Value(i+1))
		}
		b.Commit(2)
		seg, err := model.Transactions(b.History())
		if err != nil {
			t.Fatal(err)
		}
		var k finalsKernel
		finals, err := k.feasibleFinals(seg, []model.Snapshot{{}}, 0)
		if err != nil || len(finals) != 1 {
			t.Fatalf("%d finals, %v; want one", len(finals), err)
		}
		for i, x := range xs {
			if got := finals[0].Get(x); got != model.Value(i+1) {
				t.Fatalf("x%d ends at %d, want %d", x, got, i+1)
			}
		}
		if len(k.index.slots) != 4*minVarSlots {
			t.Errorf("%d slots for %d variables, want %d", len(k.index.slots), len(xs), 4*minVarSlots)
		}
		// A stale read of the last variable leaves no serialization.
		b.Read(3, xs[len(xs)-1], 0).Commit(3)
		seg, _ = model.Transactions(b.History())
		if finals, _ := k.feasibleFinals(seg, []model.Snapshot{{}}, 0); len(finals) != 0 {
			t.Errorf("a stale read of x%d still admits %d finals", xs[len(xs)-1], len(finals))
		}
	})
}
