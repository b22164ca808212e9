package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// Determinism statically enforces the repo's pure-function contracts:
// the loadgen plan/arrival compile path (Plan.Encode/Digest is the
// runtime witness that a schedule is a pure function of (scenario,
// seed)), the deterministic sim scheduler, and the simulated TMs it
// drives. In scoped files the rule flags:
//
//   - wall-clock reads: time.Now, time.Since, time.Until, and the
//     timer constructors that embed one (time.After, time.Tick);
//   - the global math/rand (and math/rand/v2) generators — seeded
//     local sources (rand.New(rand.NewSource(seed)) or the repo's own
//     splitmix64) are fine, the process-global stream is not;
//   - iteration over a map: Go randomizes the order, so any map range
//     on the compile path can leak schedule-order nondeterminism into
//     an encoder or hasher. Collect and sort the keys instead.
//
// Scope: every file of internal/sim, of internal/stm and of their
// subpackages, the loadgen files that compile plans (arrival.go,
// scenario.go), and any file carrying a //lint:deterministic marker
// comment. If the loadgen package exists
// but its scoped files vanish in a refactor, that is a finding too —
// renames must not silently drop coverage.
func Determinism() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "plan-compile and sim files must not read clocks, global rand, or map order",
		Run:  runDeterminism,
	}
}

const (
	loadgenPathSuffix = "internal/loadgen"
	deterministicMark = "//lint:deterministic"
)

// loadgenScopedFiles are the plan-compile path inside the loadgen
// package.
var loadgenScopedFiles = []string{"arrival.go", "scenario.go"}

// globalRandFns are the package-level math/rand functions backed by
// the process-global generator.
var globalRandFns = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	"N": true, "IntN": true, "Int32N": true, "Int64N": true, "UintN": true,
	"Uint32N": true, "Uint64N": true, // rand/v2 spellings
}

// clockFns are the wall-clock reads in package time.
var clockFns = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "Tick": true,
}

func runDeterminism(prog *Program) []Finding {
	var out []Finding
	for _, pkg := range prog.Pkgs {
		p := pkg
		path := "/" + p.Path + "/"
		treeScoped := strings.Contains(path, "/internal/sim/") || strings.Contains(path, "/internal/stm/")
		loadgenPkg := pathHasSuffix(p.Path, loadgenPathSuffix)
		seen := map[string]bool{}
		for _, f := range p.Files {
			base := filepath.Base(prog.Position(f.Pos()).Filename)
			seen[base] = true
			scoped := treeScoped || hasMarker(f)
			if loadgenPkg {
				for _, want := range loadgenScopedFiles {
					if base == want {
						scoped = true
					}
				}
			}
			if !scoped {
				continue
			}
			out = append(out, p.determinismFile(f)...)
		}
		if loadgenPkg {
			for _, want := range loadgenScopedFiles {
				if !seen[want] {
					out = append(out, Finding{
						Pos:  prog.Position(p.Files[0].Pos()),
						Rule: "determinism",
						Message: fmt.Sprintf("loadgen plan-compile file %s is gone: move its determinism scope (a //lint:deterministic marker on the successor) before deleting it",
							want),
					})
				}
			}
		}
	}
	return out
}

func hasMarker(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(strings.TrimSpace(c.Text), deterministicMark) {
				return true
			}
		}
	}
	return false
}

func (p *Pkg) determinismFile(f *ast.File) []Finding {
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := p.calleeFunc(n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if clockFns[fn.Name()] {
					out = append(out, Finding{
						Pos:  p.prog.Position(n.Pos()),
						Rule: "determinism",
						Message: fmt.Sprintf("time.%s reads the wall clock in a deterministic-scope file: plans and sim schedules must be pure functions of their seed",
							fn.Name()),
					})
				}
			case "math/rand", "math/rand/v2":
				if globalRandFns[fn.Name()] {
					out = append(out, Finding{
						Pos:  p.prog.Position(n.Pos()),
						Rule: "determinism",
						Message: fmt.Sprintf("%s.%s uses the process-global generator in a deterministic-scope file: thread a seeded source instead",
							fn.Pkg().Path(), fn.Name()),
					})
				}
			}
		case *ast.RangeStmt:
			tv, ok := p.Info.Types[n.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				out = append(out, Finding{
					Pos:     p.prog.Position(n.Pos()),
					Rule:    "determinism",
					Message: "map iteration order is randomized: in a deterministic-scope file, range over sorted keys (or justify with //lint:allow(determinism))",
				})
			}
		}
		return true
	})
	return out
}
