package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic: a rule violation at a position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Message)
}

// Analyzer is one rule: a name, a one-line summary, and a pass over
// the whole type-checked program (several rules are inherently
// cross-package — a sentinel table in one package must agree with a
// declaration in another).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program) []Finding
}

// Analyzers returns the full suite in catalog order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AtomicMix(),
		LockOrder(),
		WireSentinel(),
		Determinism(),
		TelemetryLabel(),
		Unused(),
	}
}

// Analyze loads the packages matched by patterns under dir and runs
// every analyzer in the suite. Returned findings have allow
// directives already applied; directive misuse (an allow without a
// reason) surfaces as rule "directive" and is never suppressible.
func Analyze(dir string, patterns ...string) ([]Finding, error) {
	return AnalyzeWith(Analyzers(), dir, patterns...)
}

// AnalyzeWith runs a chosen analyzer subset (the fixture harness
// exercises one rule at a time).
func AnalyzeWith(as []*Analyzer, dir string, patterns ...string) ([]Finding, error) {
	prog, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, a := range as {
		for _, f := range a.Run(prog) {
			if !prog.allowed(a.Name, f.Pos) {
				out = append(out, f)
			}
		}
	}
	out = append(out, prog.directiveFindings...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out, nil
}

// directive is one parsed //lint:allow(rule[,rule]) reason comment
// with the line span it suppresses.
type directive struct {
	file      string
	rules     []string
	fromLine  int // suppression span, inclusive
	toLine    int
	wholeFile bool
}

func (d *directive) covers(rule string, pos token.Position) bool {
	if pos.Filename != d.file {
		return false
	}
	if !d.wholeFile && (pos.Line < d.fromLine || pos.Line > d.toLine) {
		return false
	}
	for _, r := range d.rules {
		if r == rule {
			return true
		}
	}
	return false
}

const allowPrefix = "//lint:allow("

// parseDirectives scans a file's comments for allow directives. The
// suppression span depends on where the directive sits:
//
//   - in a function declaration's doc comment: the whole function;
//   - in the file's package doc comment: the whole file;
//   - any other comment (doc of a var/const/type, end-of-line, or
//     standalone): the directive's own line and the line after the
//     comment group, so both `x := y //lint:allow(r) why` and a
//     comment line directly above the flagged line work.
func (p *Pkg) parseDirectives(f *ast.File) ([]*directive, []Finding) {
	var ds []*directive
	var bad []Finding
	fset := p.prog.Fset

	// Function doc comments suppress their whole body.
	funcDoc := map[*ast.CommentGroup]*ast.FuncDecl{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
			funcDoc[fd.Doc] = fd
		}
	}

	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, allowPrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := text[len(allowPrefix):]
			close := strings.Index(rest, ")")
			if close < 0 {
				bad = append(bad, Finding{Pos: pos, Rule: "directive",
					Message: "malformed allow directive: missing ')'"})
				continue
			}
			var rules []string
			for _, r := range strings.Split(rest[:close], ",") {
				if r = strings.TrimSpace(r); r != "" {
					rules = append(rules, r)
				}
			}
			reason := strings.TrimSpace(rest[close+1:])
			if len(rules) == 0 || reason == "" {
				bad = append(bad, Finding{Pos: pos, Rule: "directive",
					Message: "allow directive needs a rule list and a written reason: //lint:allow(rule) reason"})
				continue
			}
			d := &directive{file: pos.Filename, rules: rules}
			switch {
			case funcDoc[cg] != nil:
				fd := funcDoc[cg]
				d.fromLine = fset.Position(fd.Pos()).Line
				d.toLine = fset.Position(fd.End()).Line
			case f.Doc == cg:
				d.wholeFile = true
			default:
				d.fromLine = pos.Line
				d.toLine = fset.Position(cg.End()).Line + 1
			}
			ds = append(ds, d)
		}
	}
	return ds, bad
}
