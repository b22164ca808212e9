package core

import (
	"livetm/internal/stm"
	"livetm/internal/stm/dstm"
	"livetm/internal/stm/fgptm"
	"livetm/internal/stm/glock"
	"livetm/internal/stm/norec"
	"livetm/internal/stm/ostm"
	"livetm/internal/stm/tiny"
	"livetm/internal/stm/tl2"
	"livetm/internal/stm/twopl"
)

// NamedFactory is a TM implementation registered under its report
// name, together with the liveness class the paper (§3.2.3 and §6)
// predicts for it.
type NamedFactory struct {
	Name    string
	Factory stm.Factory
	// Expected liveness verdicts (see Verdict) per the paper's claims.
	Expected Verdict
	// Ablation marks the design-choice variants (a barging lock, other
	// contention managers, visible reads, no helping), kept to show what
	// each choice buys rather than for the paper's main claims; `livetm
	// tms` lists them as ablation variants.
	Ablation bool
}

// Verdict is the empirical liveness classification produced by the
// matrix experiment, aligned with the paper's per-TM claims:
//
//   - LocalFaultFree: every process commits in a fault-free run under
//     a fair schedule (the empirical shadow of local progress; by
//     Theorem 1 no opaque TM achieves it under adversarial schedules).
//   - SoloUnderCrash: the worst crash point still leaves the surviving
//     process committing.
//   - SoloUnderParasitic: a parasitic writer (fair and biased
//     schedules) still leaves the correct process committing.
type Verdict struct {
	LocalFaultFree     bool
	SoloUnderCrash     bool
	SoloUnderParasitic bool
}

// Registry returns the TM implementations in report order. With
// ablations set, the CM/fairness/helping ablation variants are
// included.
func Registry(ablations bool) []NamedFactory {
	r := []NamedFactory{
		{
			Name:     "glock",
			Factory:  func(n, v int) stm.TM { return glock.New() },
			Expected: Verdict{LocalFaultFree: true, SoloUnderCrash: false, SoloUnderParasitic: false},
		},
		{
			Name:     "tinystm",
			Factory:  func(n, v int) stm.TM { return tiny.New() },
			Expected: Verdict{LocalFaultFree: true, SoloUnderCrash: false, SoloUnderParasitic: false},
		},
		{
			Name:     "2pl",
			Factory:  func(n, v int) stm.TM { return twopl.New() },
			Expected: Verdict{LocalFaultFree: true, SoloUnderCrash: false, SoloUnderParasitic: false},
		},
		{
			Name:     "tl2",
			Factory:  func(n, v int) stm.TM { return tl2.New() },
			Expected: Verdict{LocalFaultFree: true, SoloUnderCrash: false, SoloUnderParasitic: true},
		},
		{
			Name:     "norec",
			Factory:  func(n, v int) stm.TM { return norec.New() },
			Expected: Verdict{LocalFaultFree: true, SoloUnderCrash: false, SoloUnderParasitic: true},
		},
		{
			Name:     "dstm",
			Factory:  func(n, v int) stm.TM { return dstm.New() },
			Expected: Verdict{LocalFaultFree: true, SoloUnderCrash: true, SoloUnderParasitic: false},
		},
		{
			Name:     "ostm",
			Factory:  func(n, v int) stm.TM { return ostm.New() },
			Expected: Verdict{LocalFaultFree: true, SoloUnderCrash: true, SoloUnderParasitic: true},
		},
		{
			Name: "fgp",
			Factory: func(n, v int) stm.TM {
				tm, err := fgptm.New(n, v)
				if err != nil {
					panic(err) // sizes come from the harness and are valid
				}
				return tm
			},
			Expected: Verdict{LocalFaultFree: true, SoloUnderCrash: true, SoloUnderParasitic: true},
		},
	}
	if ablations {
		r = append(r,
			NamedFactory{
				Name:     "glock-barging",
				Factory:  func(n, v int) stm.TM { return glock.NewBarging() },
				Expected: Verdict{LocalFaultFree: true, SoloUnderCrash: false, SoloUnderParasitic: false},
				Ablation: true,
			},
			NamedFactory{
				Name:     "dstm-abortself",
				Factory:  func(n, v int) stm.TM { return dstm.NewWithCM(dstm.AbortSelf) },
				Expected: Verdict{LocalFaultFree: true, SoloUnderCrash: false, SoloUnderParasitic: false},
				Ablation: true,
			},
			NamedFactory{
				Name:     "ostm-nohelp",
				Factory:  func(n, v int) stm.TM { return ostm.NewWithoutHelping() },
				Expected: Verdict{LocalFaultFree: true, SoloUnderCrash: false, SoloUnderParasitic: true},
				Ablation: true,
			},
			NamedFactory{
				Name:     "dstm-visible",
				Factory:  func(n, v int) stm.TM { return dstm.NewVisible() },
				Expected: Verdict{LocalFaultFree: true, SoloUnderCrash: true, SoloUnderParasitic: false},
				Ablation: true,
			},
			NamedFactory{
				Name:    "dstm-greedy",
				Factory: func(n, v int) stm.TM { return dstm.NewWithCM(dstm.Greedy) },
				// Greedy trades fault tolerance for fault-free
				// starvation freedom: an older crashed or parasitic
				// transaction is never aborted by younger ones.
				Expected: Verdict{LocalFaultFree: true, SoloUnderCrash: false, SoloUnderParasitic: false},
				Ablation: true,
			},
		)
	}
	return r
}

// Lookup returns the named factory, or false.
func Lookup(name string) (NamedFactory, bool) {
	for _, nf := range Registry(true) {
		if nf.Name == name {
			return nf, true
		}
	}
	return NamedFactory{}, false
}
