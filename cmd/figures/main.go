// Command figures regenerates every figure of the paper "On the
// Liveness of Transactional Memory" (PODC 2012) from the executable
// artifacts in this repository: it renders each history, reports the
// checker verdicts, enumerates the Fgp state space of Figure 15, and
// replays Figure 16's history Hex.
package main

import (
	"fmt"
	"io"
	"os"

	"livetm/internal/adversary"
	"livetm/internal/automaton"
	"livetm/internal/core"
	"livetm/internal/fgp"
	"livetm/internal/liveness"
	"livetm/internal/model"
	"livetm/internal/safety"
	"livetm/internal/trace"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	if err := history(w, "Figure 1 (opaque, strictly serializable; repeated forever it starves T1)", core.Fig1()); err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 2: process-class lattice — verified as properties over lassos;")
	fmt.Fprintln(w, "  see internal/liveness TestClassLatticeProperty.")
	fmt.Fprintln(w)
	if err := history(w, "Figure 3 (lost update: not opaque, not strictly serializable)", core.Fig3()); err != nil {
		return err
	}
	if err := history(w, "Figure 4 (strictly serializable but not opaque)", core.Fig4()); err != nil {
		return err
	}

	lasso(w, "Figure 5 (local progress)", core.Fig5())
	lasso(w, "Figure 6 (global but not local progress)", core.Fig6())
	lasso(w, "Figure 7 (solo progress: p1 crashes, p2 parasitic, p3 alone)", core.Fig7())

	if err := history(w, "Figures 8/11 (Algorithm 1/2's would-be terminating suffix, v=0)", core.Fig8(0)); err != nil {
		return err
	}

	if err := adversaryFigures(w); err != nil {
		return err
	}

	lasso(w, "Figure 14 (solo runner starves: violates every nonblocking property)", core.Fig14())

	if err := fig15(w); err != nil {
		return err
	}
	return fig16(w)
}

// adversaryFigures regenerates Figures 9, 10, 12, and 13 by running
// the Theorem 1 environment strategies against the obstruction-free
// TM, rendering each suffix, and classifying the run read as an
// infinite history. Local progress holds on Figures 9 and 12: p1 has
// crashed or is parasitic there, and a faulty process is owed nothing.
func adversaryFigures(w io.Writer) error {
	nf, ok := core.Lookup("dstm")
	if !ok {
		return fmt.Errorf("dstm not registered")
	}
	cases := []struct {
		title string
		alg   int
		cfg   adversary.Config
	}{
		{"Figure 9 (Algorithm 1, p1 crashes after its read: p2 commits forever)", 1,
			adversary.Config{Rounds: 3, Seed: 5, CrashP1AfterRead: true}},
		{"Figure 10 (Algorithm 1, p1 correct: aborted forever)", 1,
			adversary.Config{Rounds: 3, Seed: 5}},
		{"Figure 12 (Algorithm 2, p1 parasitic: reads forever, p2 commits forever)", 2,
			adversary.Config{Rounds: 3, Seed: 5, ParasiticP1: true}},
		{"Figure 13 (Algorithm 2, p1 correct: aborted forever)", 2,
			adversary.Config{Rounds: 3, Seed: 5}},
	}
	for _, c := range cases {
		var res adversary.Result
		if c.alg == 1 {
			res = adversary.Algorithm1(nf.Factory, c.cfg)
		} else {
			res = adversary.Algorithm2(nf.Factory, c.cfg)
		}
		if res.P1Committed {
			return fmt.Errorf("%s: p1 committed", c.title)
		}
		fmt.Fprintln(w, "==", c.title, "— live run vs", nf.Name)
		h := res.History
		if len(h) > 36 {
			h = h[len(h)-36:]
		}
		fmt.Fprint(w, trace.Render(h))
		v, err := core.FormalVerdicts(res)
		if err != nil {
			return fmt.Errorf("%s: %w", c.title, err)
		}
		fmt.Fprintf(w, "   p1 commits=%d p2 commits=%d local=%t global=%t 2-progress=%t\n\n",
			res.Stats.Commits[1], res.Stats.Commits[2], v["local"], v["global"], v["2-progress"])
	}
	return nil
}

func history(w io.Writer, title string, h model.History) error {
	fmt.Fprintln(w, "==", title)
	fmt.Fprint(w, trace.Render(h))
	op, err := safety.CheckOpacity(h)
	if err != nil {
		return err
	}
	ss, err := safety.CheckStrictSerializability(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "   opaque=%v  strictly-serializable=%v\n\n", op.Holds, ss.Holds)
	return nil
}

func lasso(w io.Writer, title string, l *liveness.Lasso) {
	fmt.Fprintln(w, "==", title)
	fmt.Fprintln(w, "prefix:")
	fmt.Fprint(w, trace.Render(l.Prefix))
	fmt.Fprintln(w, "cycle (repeated forever):")
	fmt.Fprint(w, trace.Render(l.Cycle))
	fmt.Fprintf(w, "   local=%v global=%v solo=%v  violates{nonblocking=%v biprogressing=%v}\n\n",
		liveness.LocalProgress.Contains(l),
		liveness.GlobalProgress.Contains(l),
		liveness.SoloProgress.Contains(l),
		liveness.ViolatesNonblocking(l),
		liveness.ViolatesBiprogressing(l))
}

func fig15(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 15 (Fgp for one process, one binary t-variable)")
	a, err := fgp.New(1, 1, fgp.Faithful)
	if err != nil {
		return err
	}
	states, err := automaton.Explore(a.IOAutomaton(), a.Alphabet([]model.Value{0, 1}), 100)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "reachable states: %d (paper lists 10)\n", len(states))
	for i, s := range states {
		fmt.Fprintf(w, "  s%-2d = %s\n", i+1, s.(*fgp.State))
	}
	fmt.Fprintln(w)
	return nil
}

func fig16(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 16 (history Hex of Fgp: 3 processes, 2 binary t-variables)")
	hex := core.Fig16Hex()
	fmt.Fprint(w, trace.Render(hex))
	a, err := fgp.New(3, 2, fgp.Corrected)
	if err != nil {
		return err
	}
	if _, err := a.IOAutomaton().Replay(hex); err != nil {
		return fmt.Errorf("Hex rejected: %w", err)
	}
	op, err := safety.CheckOpacity(hex)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "   accepted by Fgp=%v  opaque=%v\n", true, op.Holds)
	return nil
}
