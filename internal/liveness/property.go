package liveness

// Property is a TM-liveness property (Definition 1): a set of infinite
// histories, represented intensionally by its membership predicate on
// lassos. Contains(l) reports whether the infinite history l "ensures"
// the property (Definition 2).
type Property struct {
	Name     string
	Contains func(*Lasso) bool
}

// LocalProgress is L_local: every correct process makes progress, or
// the history has no correct process (§3.2.1). It is the strongest
// TM-liveness property; Theorem 1 shows it cannot be ensured together
// with opacity in a fault-prone system.
var LocalProgress = Property{
	Name: "local progress",
	Contains: func(l *Lasso) bool {
		any := false
		for _, p := range l.Procs {
			if l.Correct(p) {
				any = true
				if !l.MakesProgress(p) {
					return false
				}
			}
		}
		_ = any // vacuously true with no correct process
		return true
	},
}

// GlobalProgress is L_global: at least one correct process makes
// progress, or the history has no correct process (§3.2.2). Theorem 3
// shows it is achievable together with opacity.
var GlobalProgress = Property{
	Name: "global progress",
	Contains: func(l *Lasso) bool {
		anyCorrect := false
		for _, p := range l.Procs {
			if l.Correct(p) {
				anyCorrect = true
				if l.MakesProgress(p) {
					return true
				}
			}
		}
		return !anyCorrect
	},
}

// SoloProgress is L_solo: a process that runs alone makes progress, or
// no process runs alone (§3.2.3). Obstruction-free TMs ensure it in
// parasitic-free systems.
var SoloProgress = Property{
	Name: "solo progress",
	Contains: func(l *Lasso) bool {
		p, ok := l.RunsAlone()
		if !ok {
			return true
		}
		return l.MakesProgress(p)
	},
}

// ViolatesNonblocking reports whether the lasso witnesses that any
// property containing it is blocking (Definition 4): some process runs
// alone yet does not make progress. A TM-liveness property L is
// nonblocking iff no history of L returns true here.
func ViolatesNonblocking(l *Lasso) bool {
	p, ok := l.RunsAlone()
	return ok && !l.MakesProgress(p)
}

// ViolatesBiprogressing reports whether the lasso witnesses that any
// property containing it is not biprogressing (Definition 5): at least
// two processes are correct, yet fewer than two make progress.
func ViolatesBiprogressing(l *Lasso) bool {
	return len(l.CorrectProcs()) >= 2 && len(l.ProgressingProcs()) < 2
}
