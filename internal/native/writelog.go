package native

// writeLog is the per-transaction write set every algorithm keeps: one
// entry per distinct key, in first-write order, holding the key's
// latest value. TL2, NOrec, TinySTM and Mutex log variable → buffered
// value, TinySTM also stripe → pre-lock word, and DSTM variable → its
// own locator. The log lives in the attempt's pooled scratch and is
// reset, not reallocated, between transactions.
//
// Lookup is a linear scan while the log is short. A write set is
// bounded only by the variable count, though, and a wire program may
// carry tens of thousands of operations, so once the log reaches
// logIndexAt entries it is indexed by an open-addressed hash table of
// positions. A miss in the table yields the empty slot the key's new
// entry takes, so a first write costs one probe sequence, not a lookup
// and an insert. The table is sized to the current log and kept in the
// scratch as capacity only: a transaction that never reaches
// logIndexAt entries never touches it, and one that does clears just
// the prefix it uses.
type writeLog[V any] struct {
	entries []logEntry[V]
	// index is empty (capacity kept) until the log reaches logIndexAt
	// entries. From then on its length is a power of two at least twice
	// the entry count, and each slot holds 0 (empty) or an entry's
	// position + 1.
	index []int32
}

// logEntry is one key of a writeLog and its latest value.
type logEntry[V any] struct {
	key int
	val V
}

// logIndexAt is the log length from which lookups use the index instead
// of a scan: short enough that a scan never costs much more than a
// probe, long enough that the common small transaction never builds one.
const logIndexAt = 16

// len returns the number of distinct keys in the log.
func (l *writeLog[V]) len() int { return len(l.entries) }

// lookup returns the position of key's entry, or -1 and, on an indexed
// log, the empty slot the key's entry would take.
func (l *writeLog[V]) lookup(key int) (pos, slot int) {
	if len(l.index) == 0 {
		for j := range l.entries {
			if l.entries[j].key == key {
				return j, -1
			}
		}
		return -1, -1
	}
	mask := len(l.index) - 1
	for s := logHash(key) & mask; ; s = (s + 1) & mask {
		p := l.index[s]
		if p == 0 {
			return -1, s
		}
		if l.entries[p-1].key == key {
			return int(p - 1), s
		}
	}
}

// get returns key's logged value, if any.
func (l *writeLog[V]) get(key int) (V, bool) {
	if j, _ := l.lookup(key); j >= 0 {
		return l.entries[j].val, true
	}
	var zero V
	return zero, false
}

// put sets key's value, appending an entry on the key's first write.
func (l *writeLog[V]) put(key int, val V) {
	j, s := l.lookup(key)
	if j >= 0 {
		l.entries[j].val = val
		return
	}
	l.entries = append(l.entries, logEntry[V]{key: key, val: val})
	switch n := len(l.entries); {
	case n < logIndexAt:
	case 2*n > len(l.index): // reaching logIndexAt, or half full
		l.reindex()
	default:
		l.index[s] = int32(n)
	}
}

// reindex rebuilds the index at the smallest power-of-two size of at
// least four slots per entry, reusing the kept capacity when it is
// enough.
func (l *writeLog[V]) reindex() {
	size := 4 * logIndexAt
	for size < 4*len(l.entries) {
		size *= 2
	}
	if cap(l.index) >= size {
		l.index = l.index[:size]
		clear(l.index)
	} else {
		l.index = make([]int32, size)
	}
	mask := size - 1
	for j := range l.entries {
		s := logHash(l.entries[j].key) & mask
		for l.index[s] != 0 {
			s = (s + 1) & mask
		}
		l.index[s] = int32(j + 1)
	}
}

// reset empties the log, keeping the capacity of its entries and index.
// The dropped entries are zeroed so a log of pointers keeps nothing
// alive; the index is cleared when it is next built.
func (l *writeLog[V]) reset() {
	clear(l.entries)
	l.entries = l.entries[:0]
	l.index = l.index[:0]
}

// logHash scatters a key over the index. Keys are dense small integers
// (variable and stripe numbers); a Fibonacci multiply spreads them
// across the bits the table's mask keeps.
func logHash(key int) int {
	return int(uint64(key) * 0x9e3779b97f4a7c15 >> 32)
}
