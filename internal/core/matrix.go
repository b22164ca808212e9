package core

import (
	"fmt"
	"strings"

	"livetm/internal/stm/stmtest"
)

// MatrixConfig parameterizes the liveness-matrix experiment (E20).
// The zero value gets sensible defaults.
type MatrixConfig struct {
	// Steps per scenario run.
	Steps int
	// Sweep is the number of crash offsets tried in the crash-point
	// sweep.
	Sweep int
	// Seed drives the fair schedules.
	Seed uint64
	// Ablations includes the ablation variants.
	Ablations bool
}

func (c MatrixConfig) withDefaults() MatrixConfig {
	if c.Steps == 0 {
		c.Steps = 2000
	}
	if c.Sweep == 0 {
		c.Sweep = 40
	}
	if c.Seed == 0 {
		c.Seed = 12
	}
	return c
}

// MatrixRow is the measured liveness behavior of one TM.
type MatrixRow struct {
	Name string
	// FaultFreeCommits is the per-process commit count under a fair
	// fault-free run with 3 processes (minimum across processes).
	FaultFreeMinCommits int
	// CrashWorstCommits is the survivor's commit count at the worst
	// crash point.
	CrashWorstCommits int
	// ParasiticFairCommits and ParasiticBiasedCommits are the correct
	// process's commits against a parasitic writer under a fair and a
	// 2:1-biased schedule.
	ParasiticFairCommits   int
	ParasiticBiasedCommits int

	Measured Verdict
	Expected Verdict
	Ablation bool
}

// Match reports whether the measured verdict equals the paper's
// prediction.
func (r MatrixRow) Match() bool { return r.Measured == r.Expected }

// RunMatrix measures the liveness matrix across the registry: for
// each TM, fault-free progress, worst-case crash-point behavior, and
// parasitic-writer behavior under fair and biased schedules. Liveness
// claims are worst-case over schedules, so the parasitic verdict is
// the conjunction of both schedules.
func RunMatrix(cfg MatrixConfig) []MatrixRow {
	cfg = cfg.withDefaults()
	var rows []MatrixRow
	for _, nf := range Registry(cfg.Ablations) {
		row := MatrixRow{Name: nf.Name, Expected: nf.Expected, Ablation: nf.Ablation}

		counts := stmtest.FaultFree(nf.Factory, 3, 3*cfg.Steps, cfg.Seed)
		row.FaultFreeMinCommits = -1
		for _, c := range counts {
			if row.FaultFreeMinCommits < 0 || c < row.FaultFreeMinCommits {
				row.FaultFreeMinCommits = c
			}
		}

		row.CrashWorstCommits = stmtest.CrashSweep(nf.Factory, cfg.Steps, cfg.Sweep, cfg.Seed)
		row.ParasiticFairCommits = stmtest.Parasitic(nf.Factory, cfg.Steps, cfg.Seed)
		row.ParasiticBiasedCommits = stmtest.ParasiticBiased(nf.Factory, cfg.Steps, 2)

		row.Measured = Verdict{
			LocalFaultFree:     row.FaultFreeMinCommits > 0,
			SoloUnderCrash:     row.CrashWorstCommits > 0,
			SoloUnderParasitic: row.ParasiticFairCommits > 0 && row.ParasiticBiasedCommits > 0,
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatMatrix renders the matrix as the fixed-width table the paper's
// §3.2.3 claims map onto.
func FormatMatrix(rows []MatrixRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-12s %-12s %-12s %-8s\n", "tm", "fault-free", "crash", "parasitic", "paper?")
	mark := func(v bool) string {
		if v {
			return "yes"
		}
		return "NO"
	}
	for _, r := range rows {
		match := "match"
		if !r.Match() {
			match = "MISMATCH"
		}
		name := r.Name
		if r.Ablation {
			name += "*"
		}
		fmt.Fprintf(&b, "%-16s %-12s %-12s %-12s %-8s\n",
			name,
			fmt.Sprintf("%s(%d)", mark(r.Measured.LocalFaultFree), r.FaultFreeMinCommits),
			fmt.Sprintf("%s(%d)", mark(r.Measured.SoloUnderCrash), r.CrashWorstCommits),
			fmt.Sprintf("%s(%d/%d)", mark(r.Measured.SoloUnderParasitic), r.ParasiticFairCommits, r.ParasiticBiasedCommits),
			match)
	}
	b.WriteString("\ncolumns: fault-free = min commits across 3 fair processes;\n" +
		"crash = survivor commits at the worst crash point;\n" +
		"parasitic = survivor commits under fair / 2:1-biased schedules;\n" +
		"* = ablation variant (core.Registry's Ablation flag)\n")
	return b.String()
}
