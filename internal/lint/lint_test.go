package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// expectation is one // want: annotation in a fixture source file.
// The marker's line (or, for want-prev, the line above) must carry a
// finding whose message contains the substring.
type expectation struct {
	file    string // absolute path
	line    int
	substr  string
	matched bool
}

// collectWants scans every .go file under dir for want annotations.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if at := strings.Index(line, "// want-prev:"); at >= 0 {
				wants = append(wants, &expectation{file: abs, line: i, // i is 0-based: line above
					substr: strings.TrimSpace(line[at+len("// want-prev:"):])})
			} else if at := strings.Index(line, "// want:"); at >= 0 {
				wants = append(wants, &expectation{file: abs, line: i + 1,
					substr: strings.TrimSpace(line[at+len("// want:"):])})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("collecting wants under %s: %v", dir, err)
	}
	return wants
}

// runFixture analyzes testdata/src/<fixture> with the named analyzers
// and requires an exact two-way match between findings and want
// annotations.
func runFixture(t *testing.T, fixture string, rules ...string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	var as []*Analyzer
	for _, a := range Analyzers() {
		for _, r := range rules {
			if a.Name == r {
				as = append(as, a)
			}
		}
	}
	if len(as) != len(rules) {
		t.Fatalf("unknown rule in %v", rules)
	}
	findings, err := AnalyzeWith(as, dir, "./...")
	if err != nil {
		t.Fatalf("analyzing %s: %v", dir, err)
	}
	wants := collectWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want annotations", fixture)
	}
	for _, f := range findings {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == filepath.Clean(f.Pos.Filename) &&
				w.line == f.Pos.Line && strings.Contains(f.Message, w.substr) {
				w.matched, found = true, true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing finding at %s:%d (want message containing %q)",
				w.file, w.line, w.substr)
		}
	}
}

func TestAtomicMixFixture(t *testing.T)    { runFixture(t, "atomicmix", "atomicmix") }
func TestLockOrderFixture(t *testing.T)    { runFixture(t, "lockorder", "lockorder") }
func TestWireSentinelFixture(t *testing.T) { runFixture(t, "wiresentinel", "wiresentinel") }
func TestDeterminismFixture(t *testing.T)  { runFixture(t, "determinism", "determinism") }

// TestDeterminismScopeLoss: deleting a scoped loadgen file without
// moving its scope marker is itself a finding.
func TestDeterminismScopeLoss(t *testing.T) { runFixture(t, "determinism-missing", "determinism") }

func TestTelemetryLabelFixture(t *testing.T) { runFixture(t, "telemetrylabel", "telemetrylabel") }

// TestUnusedFixture covers the reachability rule: dead cycles, callees
// orphaned by a dead caller, the interface method rule, a package only
// a test imports, and a suppressing directive.
func TestUnusedFixture(t *testing.T) { runFixture(t, "unused", "unused") }

// TestAllowDirectives proves each directive scope suppresses exactly
// its documented span, a wrong-rule directive suppresses nothing, and
// a reasonless directive is an unsuppressible finding of its own.
func TestAllowDirectives(t *testing.T) { runFixture(t, "allow", "determinism") }

// TestSelfRunClean is the gate the committed tree must hold: the full
// suite over the livetm module itself reports nothing. Violations are
// either fixed or carry an //lint:allow with a written reason.
func TestSelfRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("self-run type-checks the whole module")
	}
	findings, err := Analyze("../..", "./...")
	if err != nil {
		t.Fatalf("self-run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("self-run finding: %s", f)
	}
}

// TestAnalyzerCatalog pins the suite's rule names: doc.go, the CLI,
// and the allow directives all refer to them.
func TestAnalyzerCatalog(t *testing.T) {
	want := []string{"atomicmix", "lockorder", "wiresentinel", "determinism", "telemetrylabel", "unused"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q needs a doc line and a Run", a.Name)
		}
	}
}
