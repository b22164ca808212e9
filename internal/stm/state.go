package stm

import (
	"cmp"
	"slices"

	"livetm/internal/model"
)

const (
	pageBits  = 4
	pageSize  = 1 << pageBits
	denseVars = 1 << 12
)

// Table holds one T per t-variable id, each starting as T's zero value.
// Ids below 4 096 live in fixed pages, allocated as ids in them are
// first asked for, and the rest in a map, so any id up to model.MaxTVar
// works and a sparse id never sizes a page. Pages never move, so a *T
// stays valid for the table's life.
type Table[T any] struct {
	pages []*[pageSize]T
	far   map[model.TVar]*T
}

// At returns x's entry, creating it when x is first asked for.
func (tb *Table[T]) At(x model.TVar) *T {
	// find's dense lookup, repeated so that this path skips its map
	// branch: pages only covers ids below denseVars.
	if i := uint(x) >> pageBits; i < uint(len(tb.pages)) {
		if pg := tb.pages[i]; pg != nil {
			return &pg[x&(pageSize-1)]
		}
	}
	return tb.create(x)
}

// find returns x's entry, or nil when At never created it.
func (tb *Table[T]) find(x model.TVar) *T {
	if x >= denseVars {
		return tb.far[x]
	}
	if i := int(x >> pageBits); i < len(tb.pages) {
		if pg := tb.pages[i]; pg != nil {
			return &pg[x&(pageSize-1)]
		}
	}
	return nil
}

// create is At's path for an id whose page or map entry is missing.
func (tb *Table[T]) create(x model.TVar) *T {
	if x < denseVars {
		i := int(x >> pageBits)
		if i >= len(tb.pages) {
			tb.pages = append(tb.pages, make([]*[pageSize]T, i+1-len(tb.pages))...)
		}
		if tb.pages[i] == nil {
			tb.pages[i] = new([pageSize]T)
		}
		return &tb.pages[i][x&(pageSize-1)]
	}
	e := tb.far[x]
	if e == nil {
		if tb.far == nil {
			tb.far = make(map[model.TVar]*T)
		}
		e = new(T)
		tb.far[x] = e
	}
	return e
}

// Entry is one t-variable of a Log with its value.
type Entry[V any] struct {
	X model.TVar
	V V
}

// Log is one transaction's set of t-variables, each with a V, kept in
// the order they were added. It is reused across a process's
// transactions: Reset empties it at once by starting a new epoch, and a
// per-variable slot records in which epoch, and where, a variable was
// added, so a lookup indexes instead of scanning. Reset starts every
// use, the first included.
type Log[V any] struct {
	epoch   uint64
	entries []Entry[V]
	slots   Table[slot]
}

type slot struct {
	epoch uint64
	i     int
}

// Reset empties the log.
func (l *Log[V]) Reset() {
	l.epoch++
	l.entries = l.entries[:0]
}

// Get returns x's value, or false when x is not in the log. The pointer
// is valid until the next Add.
func (l *Log[V]) Get(x model.TVar) (*V, bool) {
	if s := l.slots.find(x); s != nil && s.epoch == l.epoch {
		return &l.entries[s.i].V, true
	}
	return nil, false
}

// Add returns x's value, adding x with a zero value when it is not in
// the log; added says whether it was not. The pointer is valid until
// the next Add.
func (l *Log[V]) Add(x model.TVar) (v *V, added bool) {
	s := l.slots.find(x)
	if s == nil {
		s = l.slots.create(x)
	}
	if s.epoch != l.epoch {
		s.epoch, s.i = l.epoch, len(l.entries)
		l.entries = append(l.entries, Entry[V]{X: x})
		added = true
	}
	return &l.entries[s.i].V, added
}

// Put sets x's value, adding x when it is not in the log.
func (l *Log[V]) Put(x model.TVar, v V) {
	p, _ := l.Add(x)
	*p = v
}

// Entries returns the log's entries in order. They are the log's own:
// the next Reset reuses them.
func (l *Log[V]) Entries() []Entry[V] { return l.entries }

// Sort orders the entries by variable, for a transaction about to
// end: it leaves the slots pointing at the old positions, so Get, Add
// and Put are wrong after it until the next Reset.
func (l *Log[V]) Sort() {
	slices.SortFunc(l.entries, func(a, b Entry[V]) int { return cmp.Compare(a.X, b.X) })
}
