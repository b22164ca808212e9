package engine

import (
	"errors"
	"fmt"
	"testing"

	"livetm/internal/model"
	"livetm/internal/safety"
	"livetm/internal/telemetry"
)

// mixedBody returns a deterministic pseudo-random read/write body
// over nVars variables: idempotent across retries because the
// operation sequence depends only on (proc, round).
func mixedBody(nVars int) TxBody {
	return func(proc, round int, tx Tx) error {
		h := uint64(proc*2654435761 + round*40503 + 1)
		ops := int(h%3) + 1
		for j := 0; j < ops; j++ {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
			x := int(h % uint64(nVars))
			if h&4 == 0 {
				if _, err := tx.Read(x); err != nil {
					return err
				}
			} else if err := tx.Write(x, int64(h%5)); err != nil {
				return err
			}
		}
		return nil
	}
}

// counterBody increments variable x.
func counterBody(x int) TxBody {
	return func(proc, round int, tx Tx) error {
		v, err := tx.Read(x)
		if err != nil {
			return err
		}
		return tx.Write(x, v+1)
	}
}

// parasiticBody keeps writing without ever committing (§3.1's
// parasitic process, expressed through the engine API).
func parasiticBody(x int) TxBody {
	return func(proc, round int, tx Tx) error {
		if err := tx.Write(x, int64(round)); err != nil {
			return err
		}
		return ErrNoCommit
	}
}

func TestRegistryShape(t *testing.T) {
	engines := Engines(false)
	sims, natives := 0, 0
	seen := map[string]bool{}
	for _, e := range engines {
		if seen[e.Name()] {
			t.Errorf("duplicate engine name %q", e.Name())
		}
		seen[e.Name()] = true
		switch e.Capabilities().Substrate {
		case Simulated:
			sims++
		case Native:
			natives++
		}
	}
	if sims < 8 {
		t.Errorf("simulated engines = %d, want >= 8", sims)
	}
	if natives < 5 {
		t.Errorf("native engines = %d, want >= 5", natives)
	}
	// The algorithms implemented on both substrates pair up by
	// Algorithm().
	for _, alg := range []string{"tl2", "norec", "tinystm", "dstm"} {
		s, okS := Lookup("sim-" + alg)
		n, okN := Lookup("native-" + alg)
		if !okS || !okN {
			t.Fatalf("algorithm %q missing a substrate (sim=%v native=%v)", alg, okS, okN)
		}
		if s.Algorithm() != n.Algorithm() {
			t.Errorf("algorithm names differ: %q vs %q", s.Algorithm(), n.Algorithm())
		}
	}
	if _, ok := Lookup("no-such-engine"); ok {
		t.Error("Lookup of unknown engine must fail")
	}
}

func TestRunConfigValidation(t *testing.T) {
	s, _ := Lookup("sim-tl2")
	n, _ := Lookup("native-tl2")
	m, _ := Lookup("native-mutex")
	cases := []struct {
		e   Engine
		cfg RunConfig
	}{
		{s, RunConfig{Procs: 0, Vars: 1, SimSteps: 10}},
		{s, RunConfig{Procs: 1, Vars: 0, SimSteps: 10}},
		{s, RunConfig{Procs: 1, Vars: 1}}, // no step budget
		{s, RunConfig{Procs: 1, Vars: 1, SimSteps: 10, OpsPerProc: -1}},
		{s, RunConfig{Procs: 1, Vars: 1, SimSteps: 10, Live: true}},
		{s, RunConfig{Procs: 1, Vars: 1, SimSteps: 10, Telemetry: telemetry.NewRegistry()}},
		{n, RunConfig{Procs: 1, Vars: 1}}, // no ops budget
		{n, RunConfig{Procs: 1, Vars: 1, OpsPerProc: -1}},
		{m, RunConfig{Procs: 1, Vars: 1}},
		{m, RunConfig{Procs: 1, Vars: 1, OpsPerProc: -1}},
	}
	for i, c := range cases {
		if _, err := c.e.Run(c.cfg, counterBody(0)); err == nil {
			t.Errorf("case %d: config %+v must be rejected", i, c.cfg)
		}
	}
}

// TestSimOpacityConformance runs the randomized opacity-conformance
// scenario through the engine API for every simulated engine: record
// the history, check well-formedness and opacity.
func TestSimOpacityConformance(t *testing.T) {
	for _, e := range Engines(false) {
		if e.Capabilities().Substrate != Simulated {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				st, err := e.Run(RunConfig{
					Procs: 2, Vars: 2, Seed: seed,
					OpsPerProc: 3, SimSteps: 20000, Record: true,
				}, mixedBody(2))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if st.History == nil {
					t.Fatal("recording engine returned no history")
				}
				if err := model.CheckWellFormed(st.History); err != nil {
					t.Fatalf("seed %d: malformed history: %v", seed, err)
				}
				res, err := safety.CheckOpacity(st.History)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.Holds {
					t.Fatalf("seed %d: history not opaque: %s\n%s", seed, res.Reason, st.History)
				}
			}
		})
	}
}

// TestSimDeterministicReplay: the same config reproduces the same
// run.
func TestSimDeterministicReplay(t *testing.T) {
	e, _ := Lookup("sim-dstm")
	cfg := RunConfig{Procs: 3, Vars: 2, Seed: 11, SimSteps: 2000}
	a, err := e.Run(cfg, mixedBody(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(cfg, mixedBody(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Commits != b.Commits || a.Aborts != b.Aborts || a.Steps != b.Steps {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
	for p := range a.PerWorkerCommits {
		if a.PerWorkerCommits[p] != b.PerWorkerCommits[p] {
			t.Fatalf("replay diverged at proc %d: %+v vs %+v", p, a, b)
		}
	}
	if a.Commits == 0 {
		t.Fatal("run committed nothing")
	}
}

// TestSimParasitic runs the parasitic-process scenario through the
// engine API: an obstruction-free TM keeps the correct process
// committing past the parasite, the blocking global lock wedges.
func TestSimParasitic(t *testing.T) {
	scenario := func(name string) (survivorCommits uint64) {
		t.Helper()
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("engine %s not registered", name)
		}
		st, err := e.Run(RunConfig{Procs: 2, Vars: 1, Seed: 5, SimSteps: 6000},
			func(proc, round int, tx Tx) error {
				if proc == 0 {
					return parasiticBody(0)(proc, round, tx)
				}
				return counterBody(0)(proc, round, tx)
			})
		if err != nil {
			t.Fatal(err)
		}
		if st.PerWorkerCommits[0] != 0 {
			t.Fatalf("%s: the parasite committed %d times", name, st.PerWorkerCommits[0])
		}
		if st.NoCommits == 0 {
			t.Fatalf("%s: the parasite never completed a round", name)
		}
		return st.PerWorkerCommits[1]
	}
	// The survivor may land a commit or two before the parasite
	// establishes itself (stmtest.Parasitic discards a warm-up phase
	// for the same reason): the property is bounded-vs-growing.
	if got := scenario("sim-ostm"); got < 10 {
		t.Errorf("ostm: correct process starved by a parasite (%d commits)", got)
	}
	if got := scenario("sim-glock"); got > 2 {
		t.Errorf("glock: correct process committed %d times behind a parasitic lock holder", got)
	}
}

// TestNativeConformance runs the bank-conservation scenario through
// the engine API on every native algorithm with real goroutines: 3
// transfer processes move money while an auditor process asserts the
// conserved total inside its own transactions. Run with -race.
func TestNativeConformance(t *testing.T) {
	const accounts = 8
	for _, e := range Engines(false) {
		if e.Capabilities().Substrate != Native {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			body := func(proc, round int, tx Tx) error {
				if proc == 0 { // auditor
					var total int64
					for i := 0; i < accounts; i++ {
						v, err := tx.Read(i)
						if err != nil {
							return err
						}
						total += v
					}
					if total != 0 {
						return fmt.Errorf("audit: total = %d, want 0", total)
					}
					return nil
				}
				h := uint64(proc*977 + round*31 + 1)
				h ^= h << 13
				h ^= h >> 7
				from, to := int(h%accounts), int((h>>8)%accounts)
				fv, err := tx.Read(from)
				if err != nil {
					return err
				}
				tv, err := tx.Read(to)
				if err != nil {
					return err
				}
				if from == to {
					return nil
				}
				if err := tx.Write(from, fv-1); err != nil {
					return err
				}
				return tx.Write(to, tv+1)
			}
			st, err := e.Run(RunConfig{Procs: 4, Vars: accounts, OpsPerProc: 150}, body)
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(4 * 150); st.Commits != want {
				t.Fatalf("commits = %d, want %d", st.Commits, want)
			}
			if st.AbortRate() < 0 || st.AbortRate() >= 1 {
				t.Fatalf("abort rate = %v", st.AbortRate())
			}
		})
	}
}

// TestNativeParasitic runs the parasitic scenario on native
// algorithms: each declined round lands in NoCommits and the parasite
// goes on to its next round, and the correct process finishes its
// budget even though a peer never commits — on the nonblocking
// algorithm, and on blocking ones, where a declined attempt holds
// nothing once it is abandoned.
func TestNativeParasitic(t *testing.T) {
	for _, tc := range []struct {
		name        string
		nonblocking bool
	}{
		{"native-dstm", true},
		{"native-tl2", false},
		{"native-mutex", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, ok := Lookup(tc.name)
			if !ok {
				t.Fatalf("%s not registered", tc.name)
			}
			if got := e.Capabilities().Nonblocking; got != tc.nonblocking {
				t.Fatalf("%s nonblocking = %v, want %v", tc.name, got, tc.nonblocking)
			}
			st, err := e.Run(RunConfig{Procs: 2, Vars: 1, OpsPerProc: 200},
				func(proc, round int, tx Tx) error {
					if proc == 0 {
						return parasiticBody(0)(proc, round, tx)
					}
					return counterBody(0)(proc, round, tx)
				})
			if err != nil {
				t.Fatal(err)
			}
			if st.PerWorkerCommits[0] != 0 {
				t.Fatalf("parasite committed %d times", st.PerWorkerCommits[0])
			}
			if st.PerWorkerCommits[1] != 200 {
				t.Fatalf("correct process committed %d times, want 200", st.PerWorkerCommits[1])
			}
			if st.NoCommits != 200 {
				t.Fatalf("parasitic rounds = %d, want 200", st.NoCommits)
			}
		})
	}
}

// TestBodyErrorSurfaces: a non-abort body error is returned on both
// substrates. A simulated run stops at that step; a native one ends
// only the failing process's rounds, and every other process commits
// its whole budget.
func TestBodyErrorSurfaces(t *testing.T) {
	sentinel := errors.New("sentinel")
	const procs, ops, failAt = 3, 10, 4
	for _, name := range []string{"sim-tl2", "native-tl2", "native-mutex"} {
		t.Run(name, func(t *testing.T) {
			e, _ := Lookup(name)
			cfg := RunConfig{Procs: procs, Vars: procs, SimSteps: 100000, OpsPerProc: ops}
			st, err := e.Run(cfg, func(proc, round int, tx Tx) error {
				if proc == 1 && round == failAt {
					return sentinel
				}
				return counterBody(proc)(proc, round, tx)
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("err = %v, want sentinel", err)
			}
			if e.Capabilities().Substrate != Native {
				return
			}
			for p, got := range st.PerWorkerCommits {
				want := uint64(ops)
				if p == 1 {
					want = failAt
				}
				if got != want {
					t.Errorf("process %d committed %d rounds, want %d", p, got, want)
				}
			}
		})
	}
}

// TestSimBodyErrorStopsEarly: a terminal body error must end the
// simulated run at the next step, not burn the whole budget while
// the errored process's live transaction wedges its peers.
func TestSimBodyErrorStopsEarly(t *testing.T) {
	sentinel := errors.New("sentinel")
	e, _ := Lookup("sim-glock")
	st, err := e.Run(RunConfig{Procs: 2, Vars: 1, Seed: 3, SimSteps: 100000},
		func(proc, round int, tx Tx) error {
			if proc == 0 {
				if err := tx.Write(0, 1); err != nil {
					return err
				}
				return sentinel // exits holding the global lock
			}
			return counterBody(0)(proc, round, tx)
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if st.Steps >= 100000 {
		t.Fatalf("run burned the whole %d-step budget after the body error", st.Steps)
	}
}
