package workload

import (
	"testing"

	"livetm/internal/core"
	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
	"livetm/internal/stm/dstm"
	"livetm/internal/stm/fgptm"
	"livetm/internal/stm/glock"
	"livetm/internal/stm/ostm"
	"livetm/internal/stm/tiny"
	"livetm/internal/stm/tl2"
)

func factories() map[string]stm.Factory {
	return map[string]stm.Factory{
		"glock": func(n, v int) stm.TM { return glock.New() },
		"tiny":  func(n, v int) stm.TM { return tiny.New() },
		"tl2":   func(n, v int) stm.TM { return tl2.New() },
		"dstm":  func(n, v int) stm.TM { return dstm.New() },
		"ostm":  func(n, v int) stm.TM { return ostm.New() },
		"fgp": func(n, v int) stm.TM {
			tm, err := fgptm.New(n, v)
			if err != nil {
				panic(err)
			}
			return tm
		},
	}
}

func TestAtomicallyCommits(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			tm := f(1, 2)
			env := sim.Background(1)
			attempts := Atomically(tm, env, func(tx *Tx) {
				tx.Write(0, 42)
			})
			if attempts < 1 {
				t.Fatalf("attempts = %d", attempts)
			}
			var got model.Value
			Atomically(tm, env, func(tx *Tx) { got = tx.Read(0) })
			if got != 42 {
				t.Errorf("read back %d, want 42", got)
			}
		})
	}
}

func TestAtomicallyBounded(t *testing.T) {
	tm := tl2.New()
	env := sim.Background(1)
	attempts, ok := AtomicallyBounded(tm, env, 3, func(tx *Tx) {
		tx.Write(0, 1)
	})
	if !ok || attempts != 1 {
		t.Errorf("bounded commit = %d,%v; want 1,true", attempts, ok)
	}
}

func TestTxDeadAfterAbort(t *testing.T) {
	// Force an abort through tiny's encounter lock, then check the
	// handle goes dead rather than issuing more operations.
	tm := tiny.New()
	env1, env2 := sim.Background(1), sim.Background(2)
	if st := tm.Write(env1, 0, 1); st != stm.OK {
		t.Fatal("p1 write")
	}
	tx := &Tx{tm: tm, env: env2}
	_ = tx.Read(0) // aborts: x0 is locked by p1
	if !tx.Aborted() {
		t.Fatal("tx must be aborted")
	}
	if v := tx.Read(1); v != 0 {
		t.Error("reads after abort must return 0")
	}
	tx.Write(1, 9) // must be a no-op
	if st := tm.TryCommit(env1); st != stm.OK {
		t.Fatal("p1 commit")
	}
	v, st := tm.Read(env1, 1)
	if st != stm.OK || v != 0 {
		t.Errorf("x1 = %d,%v; a dead handle must not have written", v, st)
	}
}

func TestIncrement(t *testing.T) {
	tm := dstm.New()
	env := sim.Background(1)
	for i := 0; i < 5; i++ {
		Increment(tm, env, 0)
	}
	var got model.Value
	Atomically(tm, env, func(tx *Tx) { got = tx.Read(0) })
	if got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
}

// TestBankConservation runs concurrent transfers on every TM and
// checks that the total is conserved — the classic opacity-in-action
// workload.
func TestBankConservation(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			tm := f(4, 8)
			setup := sim.Background(4)
			bank := NewBank(tm, setup, 8, 100)
			s := sim.New(sim.NewSeeded(5))
			defer s.Close()
			// Each process performs a bounded number of transfers and
			// exits, so every lock is released before the final audit
			// (an audit concurrent with parked lock holders would spin;
			// TestBankTotalDuringChaos covers the concurrent case).
			for i := 0; i < 3; i++ {
				p := model.Proc(i + 1)
				pi := i
				_ = s.Spawn(p, func(env *sim.Env) {
					state := uint64(pi + 1)
					for n := 0; n < 30; n++ {
						state ^= state << 13
						state ^= state >> 7
						state ^= state << 17
						from := int(state % 8)
						to := int(state / 8 % 8)
						bank.Transfer(env, from, to, 5)
					}
				})
			}
			if steps := s.Run(400000); steps >= 400000 {
				t.Fatal("transfer processes did not finish; the TM wedged")
			}
			if total := bank.Total(setup); total != 800 {
				t.Errorf("total = %d, want 800 (money was created or destroyed)", total)
			}
		})
	}
}

// TestBankTotalDuringChaos interleaves audits with the transfers.
func TestBankTotalDuringChaos(t *testing.T) {
	tm := tl2.New()
	setup := sim.Background(3)
	bank := NewBank(tm, setup, 4, 50)
	s := sim.New(sim.NewSeeded(6))
	defer s.Close()
	_ = s.Spawn(1, func(env *sim.Env) {
		for {
			bank.Transfer(env, 0, 1, 1)
			bank.Transfer(env, 1, 2, 1)
		}
	})
	bad := 0
	_ = s.Spawn(2, func(env *sim.Env) {
		for {
			if bank.Total(env) != 200 {
				bad++
			}
		}
	})
	s.Run(8000)
	if bad != 0 {
		t.Errorf("%d audits observed a non-conserved total", bad)
	}
}

// TestBankCrashAudit crashes p1 mid-run while three processes transfer
// on each simulated TM, lets the survivors go on, then audits. No audit
// may read a non-conserved total. Whether it completes is the TM's
// liveness under a crash, pinned per TM: a crashed lock holder wedges
// glock, tinystm and tl2, and the audit blocks.
func TestBankCrashAudit(t *testing.T) {
	const accounts, initial = 6, model.Value(100)
	want := map[string]string{
		"glock": "blocked", "tinystm": "blocked", "tl2": "blocked",
		"2pl": "ok", "norec": "ok", "dstm": "ok", "ostm": "ok", "fgp": "ok",
	}
	for _, nf := range core.Registry(false) {
		t.Run(nf.Name, func(t *testing.T) {
			bank := NewBank(nf.Factory(4, accounts), sim.Background(4), accounts, initial)
			s := sim.New(sim.NewSeeded(7))
			defer s.Close()
			for i := 0; i < 3; i++ {
				state := uint64(i + 13)
				_ = s.Spawn(model.Proc(i+1), func(env *sim.Env) {
					for {
						state ^= state << 13
						state ^= state >> 7
						state ^= state << 17
						bank.Transfer(env, int(state%accounts), int((state>>8)%accounts), 1)
					}
				})
			}
			s.Run(900)
			s.Crash(1)
			s.Run(4000)
			// The audit runs inside the scheduler, so a wedged TM leaves
			// it blocked within the step budget instead of hanging.
			var total model.Value
			audited := false
			_ = s.Spawn(4, func(env *sim.Env) {
				total = bank.Total(env)
				audited = true
			})
			s.Run(4000)
			got := "blocked"
			if audited {
				if total != accounts*initial {
					t.Fatalf("audit read total %d, want %d", total, accounts*initial)
				}
				got = "ok"
			}
			if got != want[nf.Name] {
				t.Errorf("audit %s, want %q", got, want[nf.Name])
			}
		})
	}
}
