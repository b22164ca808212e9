package workload

import (
	"testing"

	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
	"livetm/internal/stm/tiny"
)

// TestAtomicallyBoundedExhausts: against a permanently-held encounter
// lock the budget runs out and ok is false.
func TestAtomicallyBoundedExhausts(t *testing.T) {
	tm := tiny.New()
	blocker := sim.Background(1)
	if st := tm.Write(blocker, 0, 9); st != stm.OK {
		t.Fatal("blocker write")
	}
	// p2's transaction conflicts on x0 forever.
	attempts, ok := AtomicallyBounded(tm, sim.Background(2), 5, func(tx *Tx) {
		tx.Write(0, 1)
	})
	if ok {
		t.Fatal("bounded transaction must fail against a held lock")
	}
	if attempts != 5 {
		t.Errorf("attempts = %d, want 5", attempts)
	}
}

// TestTotalBounded covers both outcomes of the bounded audit.
func TestTotalBounded(t *testing.T) {
	tm := tiny.New()
	setup := sim.Background(1)
	bank := NewBank(tm, setup, 3, 10)
	total, ok := bank.TotalBounded(setup, 4)
	if !ok || total != 30 {
		t.Fatalf("TotalBounded = %d,%v; want 30,true", total, ok)
	}
	// A second process wedges account 1 with an encounter lock.
	blocker := sim.Background(2)
	if st := tm.Write(blocker, model.TVar(1), 99); st != stm.OK {
		t.Fatal("blocker write")
	}
	if _, ok := bank.TotalBounded(setup, 4); ok {
		t.Fatal("audit through a held lock must exhaust its budget")
	}
}

// TestBankAccessors covers the small accessors.
func TestBankAccessors(t *testing.T) {
	bank := NewBank(tiny.New(), sim.Background(1), 5, 1)
	if bank.Accounts() != 5 {
		t.Errorf("Accounts = %d", bank.Accounts())
	}
}

// Aborted reports whether the current attempt has aborted.
func (t *Tx) Aborted() bool { return t.aborted }

// AtomicallyBounded is Atomically with an attempt budget; ok is false
// when the budget is exhausted without a commit.
func AtomicallyBounded(tm stm.TM, env *sim.Env, maxAttempts int, body func(*Tx)) (attempts int, ok bool) {
	for attempts = 1; attempts <= maxAttempts; attempts++ {
		tx := &Tx{tm: tm, env: env}
		body(tx)
		if tx.aborted {
			continue
		}
		if tm.TryCommit(env) == stm.OK {
			return attempts, true
		}
	}
	return maxAttempts, false
}

// Accounts returns the number of accounts.
func (b *Bank) Accounts() int { return b.accounts }

// TotalBounded is Total with an attempt budget, for auditing a bank
// whose other users may be wedged holding locks: ok is false when no
// audit transaction could commit within the budget.
func (b *Bank) TotalBounded(env *sim.Env, maxAttempts int) (total model.Value, ok bool) {
	_, ok = AtomicallyBounded(b.tm, env, maxAttempts, func(tx *Tx) {
		total = 0
		for i := 0; i < b.accounts; i++ {
			total += tx.Read(model.TVar(i))
		}
	})
	return total, ok
}
