// Verify: exhaustively model-check TM implementations. The explorer
// enumerates every interleaving (and every crash placement) of a small
// scenario and checks opacity of each reachable history — then shows
// the checker catching a deliberately broken TM, with the violating
// schedule reported for replay.
package main

import (
	"fmt"
	"os"

	"livetm/internal/core"
	"livetm/internal/explore"
	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "verify:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("Exhaustive opacity verification (all schedules of 2 one-shot increments, depth 14):")
	for _, name := range core.ExploredTMs {
		nf, ok := core.Lookup(name)
		if !ok {
			return fmt.Errorf("%s not registered", name)
		}
		stats, err := core.ExhaustiveOpacity(nf.Factory, 2, 14)
		if err != nil {
			return fmt.Errorf("%s FAILED: %w", name, err)
		}
		fmt.Printf("  %-10s %5d schedules, deepest %2d — every history opaque\n",
			name, stats.Schedules, stats.Deepest)
	}

	fmt.Println("\nWith exhaustive crash injection (every placement of a p1 crash):")
	nf, _ := core.Lookup("ostm")
	sc := explore.Scenario{NProcs: 2, NVars: 2, Factory: nf.Factory,
		Body: func(tm stm.TM, p model.Proc) func(*sim.Env) {
			if p == 1 {
				return func(env *sim.Env) {
					if tm.Write(env, 0, 7) != stm.OK {
						return
					}
					if tm.Write(env, 1, 8) != stm.OK {
						return
					}
					tm.TryCommit(env)
				}
			}
			return func(env *sim.Env) {
				tm.Read(env, 0)
				tm.Read(env, 1)
				tm.TryCommit(env)
			}
		}}
	stats, err := explore.RunWithCrashes(sc, 12, []model.Proc{1}, core.CheckOpaque)
	if err != nil {
		return fmt.Errorf("ostm crash-exhaustive FAILED: %w", err)
	}
	fmt.Printf("  ostm: %d schedules×crash-points — helped commits stay atomic and opaque\n", stats.Schedules)

	fmt.Println("\nAnd a deliberately broken TM (in-place writes, no isolation):")
	broken := explore.Scenario{NProcs: 2, NVars: 1,
		Factory: func(n, v int) stm.TM { return &dirtyTM{store: map[model.TVar]model.Value{}} },
		Body: func(tm stm.TM, p model.Proc) func(*sim.Env) {
			if p == 1 {
				return func(env *sim.Env) {
					tm.Write(env, 0, 7)
					env.Yield() // transaction left live: its write must be invisible
				}
			}
			return func(env *sim.Env) {
				tm.Read(env, 0)
				tm.TryCommit(env)
			}
		}}
	_, err = explore.Run(broken, 10, core.CheckOpaque)
	if err == nil {
		return fmt.Errorf("the broken TM was not caught")
	}
	fmt.Printf("  caught: %v\n", err)
	return nil
}

// dirtyTM leaks uncommitted writes — the explorer must find the
// schedule that exposes it.
type dirtyTM struct {
	store map[model.TVar]model.Value
}

func (b *dirtyTM) Name() string { return "dirty" }

func (b *dirtyTM) Read(env *sim.Env, x model.TVar) (model.Value, stm.Status) {
	env.Yield()
	return b.store[x], stm.OK
}

func (b *dirtyTM) Write(env *sim.Env, x model.TVar, v model.Value) stm.Status {
	env.Yield()
	b.store[x] = v
	return stm.OK
}

func (b *dirtyTM) TryCommit(env *sim.Env) stm.Status {
	env.Yield()
	return stm.OK
}
