package safety

import (
	"math/bits"
	"slices"

	"livetm/internal/model"
)

// The one exact search behind every opacity verdict: which committed
// snapshots can a segment's transactions leave behind, serialized
// legally and in real-time order from one of the feasible start
// snapshots? StreamChecker owns a finalsKernel and asks it through
// feasibleFinals at every quiescent cut. CheckOpacity and
// CheckStrictSerializability ask a fresh one once, from the initial
// state, in witness mode (serialization below) for any history within
// the 64-transaction cap: the whole history is then one segment.
//
// The segment is compiled once: its variables get dense segment-local
// indices (those some transaction may commit a write to come first, so
// the prefix of the value slice is all a search state can differ in),
// each transaction's external reads — the reads its own earlier writes
// do not answer — and its write set become spans of two flat slabs, and
// real-time predecessors, possible completions and conflicts become
// 64-bit masks. The search then works on one flat value slice by
// apply/undo, remembers the (placed, values) pairs it has branched
// from in a table whose keys compare exactly, and keeps all of it in
// scratch that is reset, not reallocated, per segment. The scratch
// belongs to the checker, not to a process-wide pool, so what a check
// allocates is a function of its input: it does not depend on which
// processor the caller runs on or on when the collector last ran.
//
// It does not enumerate the linear extensions. An enabled transaction
// T (all its real-time predecessors placed) commutes to the front of
// every extension of the current prefix when no other unplaced
// transaction that could still be ordered before it — anything but its
// real-time successors — may write a variable T reads externally, or
// reads or may write a variable T may write: moving T first changes
// neither what T read, nor what the transactions it jumped over read,
// nor the state they jointly leave. Such a T is placed without
// branching (both ways when it is commit-pending and writes); and if T
// is illegal in the current state the prefix is dead, because nothing
// that can still precede T changes what it read. A waived straddler
// has no reads and qualifies on its writes alone. Only a prefix where
// every enabled transaction conflicts with another unplaced one
// branches, so transactions over disjoint variables — the cut-starved
// stretches that force frontiers — are placed in one linear pass.

// varVal is one compiled access: a segment-local variable index and
// the value read or written. The undo log reuses it for the value a
// write replaced.
type varVal struct {
	v   int32
	val model.Value
}

// span selects a transaction's accesses in a slab.
type span struct{ lo, hi int32 }

// varUse is the compile-time bookkeeping of one segment variable.
type varUse struct {
	// readers and writers select the transactions that read the
	// variable externally and that acknowledged a write to it.
	readers, writers uint64
	// rdAt and wrAt are the slab positions of the last such read and
	// write: those of the transaction being compiled when its bit is
	// set, which is all the within-transaction lookups ask.
	rdAt, wrAt int32
}

// finalsKernel is the compiled segment plus the search state.
type finalsKernel struct {
	full      uint64 // every transaction placed
	mayCommit uint64 // committed or commit-pending with writes
	mayAbort  uint64 // everything not committed
	// preds selects a transaction's real-time predecessors, succs its
	// successors, conflicts the non-successors it does not commute with.
	preds, succs, conflicts []uint64
	reads, writes           []span
	rslab, wslab            []varVal

	index varTable
	vars  []model.TVar
	uses  []varUse
	nw    int // vars[:nw] are the variables a search can change

	vals   []model.Value
	undo   []varVal
	memo   keyTable // (placed, vals[:nw]) pairs already branched from
	finals keyTable // (owner of the start, vals[:nw]) of every complete serialization
	class  uint64   // owner of the start the search in progress began from
	// owner is, per start, the first start that agrees with it outside
	// vars[:nw]; -1 once a final has taken the owner's map over.
	owner []int
	// starts is the kernel's copy of the caller's start slice, whose
	// storage the finals are written over.
	starts []model.Snapshot

	// Witness mode (see serialization) also keeps the prefix in
	// progress as placements, path[d] being the d-th; order, the first
	// complete serialization; and the deepest read found illegal.
	witness  bool
	path     []step
	order    []step
	obstacle obstacle
}

// step is one placement of a witness-mode search: the transaction and
// the undo log's length when it was placed. A commit-pending
// transaction was completed as committed exactly when the log grew
// before the next placement, since only its own write-back runs in
// between.
type step struct{ txn, undoAt int32 }

// obstacle is an illegal read met at depth placements: transaction
// txn read val from segment variable v, which held held.
type obstacle struct {
	depth, txn int
	v          int32
	val, held  model.Value
}

// maxKeptMemo bounds, in keys plus values, the memo storage a kernel
// keeps from one segment to the next: one segment of heavily
// conflicting transactions must not pin the memory of its search for
// the life of the checker.
const maxKeptMemo = 1 << 20

// trim ends a segment: the kernel lets go of the caller's maps and of
// a memo that outgrew maxKeptMemo.
func (k *finalsKernel) trim() {
	clear(k.starts)
	if cap(k.memo.heads)+cap(k.memo.vals) > maxKeptMemo {
		k.memo = keyTable{}
	}
}

// feasibleFinals returns the deduplicated committed snapshots reachable
// by legally serializing the segment from any of the given start
// states. relaxed is a bitmask of segment transactions whose read
// legality is waived: transactions that straddled a forced
// serialization frontier (the streaming checker's bounded-overlap
// fallback) read values the flushed window would have had to explain,
// and that window is gone — their reads are unverifiable, not wrong. A relaxed transaction still occupies its
// real-time slot and still applies its write set when (treated as)
// committed, so the propagated states stay exact for everyone else.
//
// Snapshots are compared as states (a missing variable holds
// InitialValue), and the finals come back in the order the search
// first reaches them, start by start: a function of the arguments.
//
// The starts are consumed, slice and maps. The finals are written over
// the starts' own storage, and the first final reached from a start
// takes its map over rather than copying it — the usual segment has one
// start and one final, and allocates nothing — so the caller replaces
// its states with the result and reads the starts no more. (The kernel
// reads the starts from a copy of the slice, so a final never lands on
// a start that has a later final still to derive.)
func (k *finalsKernel) feasibleFinals(seg []*model.Transaction, starts []model.Snapshot, relaxed uint64) ([]model.Snapshot, error) {
	if len(seg) > 64 {
		return nil, ErrTooManyTransactions
	}
	defer k.trim()
	if !k.compile(seg, relaxed) {
		return nil, nil
	}
	k.finals.reset(k.nw)
	k.owner = k.owner[:0]
	k.starts = append(k.starts[:0], starts...)
	finals := starts[:0]
	starts = k.starts
	for i, s := range starts {
		k.owner = append(k.owner, k.ownerOf(starts, i))
		k.class = uint64(k.owner[i])
		for v, x := range k.vars {
			k.vals[v] = s.Get(x)
		}
		k.memo.reset(k.nw)
		k.search(0)
	}
	for e := 0; e < k.finals.len(); e++ {
		class, written := k.finals.key(e)
		out := starts[class]
		if k.owner[class] < 0 {
			// Its map is already a final; that differs from the
			// start only where every final is overwritten below.
			out = out.Clone()
		}
		k.owner[class] = -1
		for v, val := range written {
			out[k.vars[v]] = val
		}
		finals = append(finals, out)
	}
	return finals, nil
}

// compile builds the segment's compiled form. It reports false when a
// transaction can be legal in no state at all — it read back something
// other than its own write, or two values of one variable it never
// wrote — so the segment has no serialization.
func (k *finalsKernel) compile(seg []*model.Transaction, relaxed uint64) bool {
	n := len(seg)
	k.full = ^uint64(0) >> uint(64-n)
	k.mayCommit, k.mayAbort = 0, 0
	k.preds = resized(k.preds, n)
	k.succs = resized(k.succs, n)
	k.conflicts = resized(k.conflicts, n)
	k.reads = resized(k.reads, n)
	k.writes = resized(k.writes, n)
	clear(k.succs)
	k.index.reset()
	k.vars, k.uses = k.vars[:0], k.uses[:0]
	k.rslab, k.wslab = k.rslab[:0], k.wslab[:0]
	k.undo = k.undo[:0]

	// The variables a search can change come first.
	for i, t := range seg {
		bit := uint64(1) << uint(i)
		committed := t.Status == model.Committed
		if !committed {
			k.mayAbort |= bit
			if !commitPending(t) {
				continue
			}
		}
		wrote := false
		for _, op := range t.Ops {
			if op.Kind == model.OpWrite && !op.Aborted {
				k.varIndex(op.Var)
				wrote = true
			}
		}
		// A commit-pending transaction that wrote nothing completes
		// the same either way: one completion is enough.
		if committed || wrote {
			k.mayCommit |= bit
		}
	}
	k.nw = len(k.vars)

	for i, t := range seg {
		bit := uint64(1) << uint(i)
		k.reads[i].lo, k.writes[i].lo = int32(len(k.rslab)), int32(len(k.wslab))
		for _, op := range t.Ops {
			if op.Aborted {
				// Answered by an abort: no value to validate, no
				// write acknowledged, and no later operation exists.
				break
			}
			switch op.Kind {
			case model.OpRead:
				if relaxed&bit != 0 {
					continue
				}
				v := k.varIndex(op.Var)
				u := &k.uses[v]
				switch {
				case u.writers&bit != 0:
					if held := k.wslab[u.wrAt].val; held != op.Val {
						if k.witness {
							k.blame(0, i, varVal{v, op.Val}, held)
						}
						return false
					}
				case u.readers&bit != 0:
					if first := k.rslab[u.rdAt].val; first != op.Val {
						// Wherever this read is legal, the first is
						// not.
						if k.witness {
							k.blame(0, i, varVal{v, first}, op.Val)
						}
						return false
					}
				default:
					u.readers |= bit
					u.rdAt = int32(len(k.rslab))
					k.rslab = append(k.rslab, varVal{v, op.Val})
				}
			case model.OpWrite:
				v := k.varIndex(op.Var)
				u := &k.uses[v]
				if u.writers&bit != 0 {
					k.wslab[u.wrAt].val = op.Val
					continue
				}
				u.writers |= bit
				u.wrAt = int32(len(k.wslab))
				k.wslab = append(k.wslab, varVal{v, op.Val})
			}
		}
		k.reads[i].hi, k.writes[i].hi = int32(len(k.rslab)), int32(len(k.wslab))

		var preds uint64
		for j, b := range seg {
			if i != j && b.Precedes(t) {
				preds |= 1 << uint(j)
				k.succs[j] |= bit
			}
		}
		k.preds[i] = preds
	}

	for i := range seg {
		bit := uint64(1) << uint(i)
		var c uint64
		// Only a write that may commit can interfere, or be interfered
		// with.
		for _, r := range k.rslab[k.reads[i].lo:k.reads[i].hi] {
			c |= k.uses[r.v].writers & k.mayCommit
		}
		if k.mayCommit&bit != 0 {
			for _, w := range k.wslab[k.writes[i].lo:k.writes[i].hi] {
				c |= k.uses[w.v].readers | k.uses[w.v].writers&k.mayCommit
			}
		}
		k.conflicts[i] = c &^ (bit | k.succs[i])
	}
	k.vals = resized(k.vals, len(k.vars))
	return true
}

// varIndex returns the variable's segment-local index, assigning the
// next one on first sight.
func (k *finalsKernel) varIndex(x model.TVar) int32 {
	v, at := k.index.find(x, k.vars)
	if v >= 0 {
		return v
	}
	k.vars = append(k.vars, x)
	k.uses = append(k.uses, varUse{})
	k.index.add(at, k.vars)
	return int32(len(k.vars) - 1)
}

// search records the final state of every legal serialization that
// extends the placed prefix from the current values, and restores the
// values before it returns.
func (k *finalsKernel) search(placed uint64) {
	mark := len(k.undo)
	k.extend(placed)
	k.rollback(mark)
}

// extend is search without the restore.
func (k *finalsKernel) extend(placed uint64) {
	for placed != k.full {
		i := k.commuting(placed)
		if i < 0 {
			break
		}
		if !k.legal(i, placed) {
			return
		}
		if k.witness {
			k.place(i, placed)
		}
		bit := uint64(1) << uint(i)
		placed |= bit
		if k.mayCommit&bit == 0 {
			continue
		}
		if k.mayAbort&bit != 0 {
			k.search(placed)
		}
		k.apply(i)
	}
	if placed == k.full {
		if k.witness {
			k.keep()
		}
		k.finals.insert(k.class, k.vals[:k.nw])
		return
	}
	if !k.memo.insert(placed, k.vals[:k.nw]) {
		return
	}
	for rest := k.full &^ placed; rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(rest)
		if k.preds[i]&^placed != 0 || !k.legal(i, placed) {
			continue
		}
		if k.witness {
			k.place(i, placed)
		}
		bit := uint64(1) << uint(i)
		if k.mayAbort&bit != 0 {
			k.search(placed | bit)
		}
		if k.mayCommit&bit != 0 {
			at := len(k.undo)
			k.apply(i)
			k.extend(placed | bit)
			k.rollback(at)
		}
	}
}

// commuting returns the first enabled transaction that conflicts with
// no other unplaced one, or -1.
func (k *finalsKernel) commuting(placed uint64) int {
	for rest := k.full &^ placed; rest != 0; rest &= rest - 1 {
		i := bits.TrailingZeros64(rest)
		if (k.preds[i]|k.conflicts[i])&^placed == 0 {
			return i
		}
	}
	return -1
}

// legal reports whether transaction i's external reads hold in the
// current values, placed being the prefix it would extend.
func (k *finalsKernel) legal(i int, placed uint64) bool {
	for _, r := range k.rslab[k.reads[i].lo:k.reads[i].hi] {
		if k.vals[r.v] != r.val {
			if k.witness {
				k.blame(bits.OnesCount64(placed), i, r, k.vals[r.v])
			}
			return false
		}
	}
	return true
}

func (k *finalsKernel) apply(i int) {
	for _, w := range k.wslab[k.writes[i].lo:k.writes[i].hi] {
		k.undo = append(k.undo, varVal{w.v, k.vals[w.v]})
		k.vals[w.v] = w.val
	}
}

func (k *finalsKernel) rollback(mark int) {
	for j := len(k.undo) - 1; j >= mark; j-- {
		k.vals[k.undo[j].v] = k.undo[j].val
	}
	k.undo = k.undo[:mark]
}

// serialization is the front door's search: one feasibleFinals call
// from the initial state, in witness mode. It returns the first legal
// real-time-preserving serialization of txns it finds, each
// commit-pending transaction completed the way that serialization
// needs, or nil and the deepest illegal read the search met. txns must
// be within the 64-transaction cap.
func (k *finalsKernel) serialization(txns []*model.Transaction) ([]*model.Transaction, *model.IllegalReadError) {
	k.witness = true
	k.path = resized(k.path, len(txns))
	k.obstacle = obstacle{depth: -1}
	if finals, _ := k.feasibleFinals(txns, []model.Snapshot{{}}, 0); len(finals) == 0 {
		if k.obstacle.depth < 0 {
			return nil, nil
		}
		o := k.obstacle
		return nil, &model.IllegalReadError{Txn: txns[o.txn].ID(), Var: k.vars[o.v], Got: o.val, Expected: o.held}
	}
	witness := make([]*model.Transaction, len(txns))
	for d, s := range k.order[:len(txns)] {
		t := txns[s.txn]
		if t.Status == model.Live {
			st := model.Aborted
			if k.order[d+1].undoAt > s.undoAt {
				st = model.Committed
			}
			t = completedAs(t, st)
		}
		witness[d] = t
	}
	return witness, nil
}

// place records that transaction i extends the placed prefix.
func (k *finalsKernel) place(i int, placed uint64) {
	k.path[bits.OnesCount64(placed)] = step{int32(i), int32(len(k.undo))}
}

// keep records the complete serialization on the path, closed by the
// undo log's length so the last placement's completion reads like the
// others', and ends the search: with full zero no prefix is complete
// and no transaction is left to place, so every frame still open
// returns after at most one look at each of its remaining candidates.
func (k *finalsKernel) keep() {
	k.order = append(append(k.order[:0], k.path...), step{-1, int32(len(k.undo))})
	k.full = 0
}

// blame notes an illegal read at the given depth; the deepest one met,
// the latest among equals, is the search's explanation of a violation.
func (k *finalsKernel) blame(depth, txn int, r varVal, held model.Value) {
	if depth >= k.obstacle.depth {
		k.obstacle = obstacle{depth: depth, txn: txn, v: r.v, val: r.val, held: held}
	}
}

// ownerOf returns the first start that agrees with starts[i] on every
// variable the segment cannot change. Two finals are the same state
// exactly when their starts share an owner and the changeable
// variables ended equal.
func (k *finalsKernel) ownerOf(starts []model.Snapshot, i int) int {
	for j := 0; j < i; j++ {
		if k.owner[j] == j && k.agreeOutside(starts[j], starts[i]) && k.agreeOutside(starts[i], starts[j]) {
			return j
		}
	}
	return i
}

func (k *finalsKernel) agreeOutside(a, b model.Snapshot) bool {
	for x, val := range a {
		if v, _ := k.index.find(x, k.vars); v >= 0 && int(v) < k.nw {
			continue
		}
		if b.Get(x) != val {
			return false
		}
	}
	return true
}

// resized returns s with length n, reusing its storage when it fits.
// The contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// varTable indexes a segment's variables by their segment-local
// indices: open addressing over a power-of-two slot array, each slot 0
// (empty) or 1 + an index into the kernel's vars, where the keys
// themselves live. A TVar ranges to 2³¹−1, so no direct array would
// do. The array doubles while a segment fills it past half and is kept
// from one segment to the next; reset clears the slots it holds.
type varTable struct{ slots []int32 }

const minVarSlots = 64

func (t *varTable) reset() {
	if t.slots == nil {
		t.slots = make([]int32, minVarSlots)
	}
	clear(t.slots)
}

// find returns x's index in vars, or -1 and the empty slot its entry
// would take.
func (t *varTable) find(x model.TVar, vars []model.TVar) (int32, int) {
	mask := len(t.slots) - 1
	for at := varHash(x) & mask; ; at = (at + 1) & mask {
		v := t.slots[at] - 1
		if v < 0 || vars[v] == x {
			return v, at
		}
	}
}

// add enters vars' last variable at the empty slot find returned for it.
func (t *varTable) add(at int, vars []model.TVar) {
	t.slots[at] = int32(len(vars))
	if 2*len(vars) <= len(t.slots) {
		return
	}
	t.slots = make([]int32, 2*len(t.slots))
	mask := len(t.slots) - 1
	for v, x := range vars {
		at := varHash(x) & mask
		for t.slots[at] != 0 {
			at = (at + 1) & mask
		}
		t.slots[at] = int32(v + 1)
	}
}

// varHash scatters a variable over the slots: a Fibonacci multiply
// spreads the small dense ids experiments use across the bits the
// table's mask keeps.
func varHash(x model.TVar) int {
	return int(uint64(uint32(x)) * 0x9e3779b97f4a7c15 >> 32)
}

// keyTable is an insert-only set of (head, values) keys with values of
// one fixed length, compared exactly: the hash only picks the probe
// start. Keys live in flat slabs in insertion order, so a reset keeps
// the storage.
type keyTable struct {
	stride int
	slots  []int32 // open addressing over a power-of-two length; 0 is empty, otherwise 1 + key number
	hashes []uint64
	heads  []uint64
	vals   []model.Value // key e's values are vals[e*stride:(e+1)*stride]
}

const minKeySlots = 16

func (t *keyTable) reset(stride int) {
	t.stride = stride
	t.slots = resized(t.slots, minKeySlots)
	clear(t.slots)
	t.hashes, t.heads, t.vals = t.hashes[:0], t.heads[:0], t.vals[:0]
}

func (t *keyTable) len() int { return len(t.heads) }

func (t *keyTable) key(e int) (uint64, []model.Value) {
	return t.heads[e], t.vals[e*t.stride : (e+1)*t.stride]
}

// insert adds the key unless an equal one is present, and reports
// whether it did.
func (t *keyTable) insert(head uint64, vals []model.Value) bool {
	const mul = 0x9e3779b97f4a7c15
	h := (head + 1) * mul
	for _, v := range vals {
		h = (h ^ uint64(v)) * mul
		h ^= h >> 29
	}
	mask := uint64(len(t.slots) - 1)
	at := h & mask
	for ; t.slots[at] != 0; at = (at + 1) & mask {
		e := int(t.slots[at] - 1)
		if t.hashes[e] == h && t.heads[e] == head && slices.Equal(t.vals[e*t.stride:(e+1)*t.stride], vals) {
			return false
		}
	}
	t.hashes = append(t.hashes, h)
	t.heads = append(t.heads, head)
	t.vals = append(t.vals, vals...)
	t.slots[at] = int32(len(t.heads))
	if 2*len(t.heads) > len(t.slots) {
		t.grow()
	}
	return true
}

// grow doubles the slot array and re-places every key by its stored
// hash.
func (t *keyTable) grow() {
	t.slots = resized(t.slots, 2*len(t.slots))
	clear(t.slots)
	mask := uint64(len(t.slots) - 1)
	for e, h := range t.hashes {
		at := h & mask
		for t.slots[at] != 0 {
			at = (at + 1) & mask
		}
		t.slots[at] = int32(e + 1)
	}
}
