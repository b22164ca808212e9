package native

import (
	"errors"
	"fmt"
	"testing"
)

// scriptObserver renders every callback as a compact token so tests
// can assert exact event sequences.
type scriptObserver struct {
	events []string
}

func (o *scriptObserver) ReadInv(i int) { o.events = append(o.events, fmt.Sprintf("r%d?", i)) }
func (o *scriptObserver) ReadReturn(i int, v int64, aborted bool) {
	if aborted {
		o.events = append(o.events, "A")
	} else {
		o.events = append(o.events, fmt.Sprintf("r%d=%d", i, v))
	}
}
func (o *scriptObserver) WriteInv(i int, v int64) {
	o.events = append(o.events, fmt.Sprintf("w%d(%d)?", i, v))
}
func (o *scriptObserver) WriteReturn(i int, v int64, aborted bool) {
	if aborted {
		o.events = append(o.events, "A")
	} else {
		o.events = append(o.events, "ok")
	}
}
func (o *scriptObserver) TryCommitInv() { o.events = append(o.events, "tryC") }
func (o *scriptObserver) TryCommitReturn(committed bool) {
	if committed {
		o.events = append(o.events, "C")
	} else {
		o.events = append(o.events, "A")
	}
}
func (o *scriptObserver) Abandon() { o.events = append(o.events, "abandon") }

// TestEveryAlgorithmObservable: each registered TM reports the
// canonical increment sequence to its observer.
func TestEveryAlgorithmObservable(t *testing.T) {
	for _, info := range Algorithms() {
		t.Run(info.Name, func(t *testing.T) {
			tm, err := info.New(2)
			if err != nil {
				t.Fatal(err)
			}
			obs := &scriptObserver{}
			err = AtomicallyObserved(tm, obs, func(tx Txn) error {
				v, err := tx.Read(0)
				if err != nil {
					return err
				}
				return tx.Write(0, v+1)
			})
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"r0?", "r0=0", "w0(1)?", "ok", "tryC", "C"}
			if fmt.Sprint(obs.events) != fmt.Sprint(want) {
				t.Fatalf("events = %v, want %v", obs.events, want)
			}
		})
	}
}

// TestObserveAbandon: a body error ends the attempt without a
// tryCommit, reported through the Abandon hook, and no effects are
// published.
func TestObserveAbandon(t *testing.T) {
	sentinel := errors.New("sentinel")
	for _, info := range Algorithms() {
		t.Run(info.Name, func(t *testing.T) {
			tm, err := info.New(1)
			if err != nil {
				t.Fatal(err)
			}
			obs := &scriptObserver{}
			err = AtomicallyObserved(tm, obs, func(tx Txn) error {
				if err := tx.Write(0, 7); err != nil {
					return err
				}
				return sentinel
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("err = %v, want sentinel", err)
			}
			want := []string{"w0(7)?", "ok", "abandon"}
			if fmt.Sprint(obs.events) != fmt.Sprint(want) {
				t.Fatalf("events = %v, want %v", obs.events, want)
			}
			if err := tm.Atomically(func(tx Txn) error {
				v, err := tx.Read(0)
				if err != nil {
					return err
				}
				if v != 0 {
					return fmt.Errorf("abandoned write published: %d", v)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestObserveRangeError: an out-of-range operation is reported as an
// aborted operation followed by the abandon of the attempt.
func TestObserveRangeError(t *testing.T) {
	tm, err := NewTL2(1)
	if err != nil {
		t.Fatal(err)
	}
	obs := &scriptObserver{}
	err = AtomicallyObserved(tm, obs, func(tx Txn) error {
		_, err := tx.Read(9)
		return err
	})
	if err == nil {
		t.Fatal("out-of-range read must surface an error")
	}
	want := []string{"r9?", "A", "abandon"}
	if fmt.Sprint(obs.events) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", obs.events, want)
	}
}

// TestObserveBodyAbort: a body may return ErrAborted of its own accord
// with no operation having aborted; the observer must see the attempt
// end so the next attempt is a fresh transaction.
func TestObserveBodyAbort(t *testing.T) {
	for _, info := range Algorithms() {
		t.Run(info.Name, func(t *testing.T) {
			tm, err := info.New(1)
			if err != nil {
				t.Fatal(err)
			}
			obs := &scriptObserver{}
			attempt := 0
			err = AtomicallyObserved(tm, obs, func(tx Txn) error {
				if _, err := tx.Read(0); err != nil {
					return err
				}
				if attempt++; attempt == 1 {
					return ErrAborted // voluntary abort, no op failed
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"r0?", "r0=0", "abandon", "r0?", "r0=0", "tryC", "C"}
			if fmt.Sprint(obs.events) != fmt.Sprint(want) {
				t.Fatalf("events = %v, want %v", obs.events, want)
			}
		})
	}
}
