package core

import (
	"fmt"

	"livetm/internal/explore"
	"livetm/internal/model"
	"livetm/internal/safety"
	"livetm/internal/sim"
	"livetm/internal/stm"
)

// ExploredTMs are the TMs the exhaustive model check (E26) covers.
var ExploredTMs = []string{"tinystm", "tl2", "norec", "dstm", "ostm", "fgp"}

// ExhaustiveOpacity is the E26 evidence: it enumerates every schedule,
// up to depth steps, of procs processes that each run one increment
// transaction (read x, write x+1, commit) on a fresh TM from factory,
// and checks that every reachable history is opaque.
func ExhaustiveOpacity(factory stm.Factory, procs, depth int) (explore.Stats, error) {
	sc := explore.Scenario{NProcs: procs, NVars: 1, Factory: factory,
		Body: func(tm stm.TM, p model.Proc) func(*sim.Env) {
			return func(env *sim.Env) {
				v, st := tm.Read(env, 0)
				if st != stm.OK {
					return
				}
				if tm.Write(env, 0, v+1) != stm.OK {
					return
				}
				tm.TryCommit(env)
			}
		}}
	return explore.Run(sc, depth, CheckOpaque)
}

// CheckOpaque is the explorer's opacity check: it fails on an explored
// history that is not opaque.
func CheckOpaque(_ []model.Proc, h model.History) error {
	res, err := safety.CheckOpacity(h)
	if err != nil {
		return err
	}
	if !res.Holds {
		return fmt.Errorf("not opaque: %s", res.Reason)
	}
	return nil
}
