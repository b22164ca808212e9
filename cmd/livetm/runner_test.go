package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSubcommandTable: every dispatch entry is well-formed, rejects a
// stray argument, succeeds on -h, and its help lists every flag it
// defines.
func TestSubcommandTable(t *testing.T) {
	dir := t.TempDir()
	for _, sc := range append(subcommands, loadgenGate) {
		if sc.name == "" || sc.summary == "" || sc.setup == nil {
			t.Fatalf("malformed dispatch entry %q", sc.name)
		}
		args := strings.Fields(sc.name)
		if err := run(append(args, "stray")); err == nil {
			t.Errorf("%s with a stray argument must error", sc.name)
		}
		if err := run(append(args, "-h")); err != nil {
			t.Errorf("%s -h: %v", sc.name, err)
		}
		path := filepath.Join(dir, sc.name+".help")
		withStdout(t, path, func() {
			if err := run(append([]string{"help"}, args...)); err != nil {
				t.Errorf("help %s: %v", sc.name, err)
			}
		})
		help, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		named := map[string]bool{}
		for _, line := range strings.Split(string(help), "\n") {
			if strings.HasPrefix(line, "  -") {
				named[strings.Fields(line)[0]] = true
			}
		}
		fs := flag.NewFlagSet(sc.name, flag.ContinueOnError)
		sc.setup(fs)
		fs.VisitAll(func(f *flag.Flag) {
			if !named["-"+f.Name] {
				t.Errorf("help %s does not list its flag -%s:\n%s", sc.name, f.Name, help)
			}
		})
	}
	if err := run([]string{"help", "bogus"}); err == nil {
		t.Error("help for an unknown subcommand must error")
	}
	if err := run([]string{"loadgen", "gate"}); err == nil {
		t.Error("loadgen gate without -artifact must error")
	}
}

// withStdin temporarily redirects os.Stdin to the given file.
func withStdin(t *testing.T, path string, fn func()) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdin
	os.Stdin = f
	defer func() { os.Stdin = old }()
	fn()
}

// withStdout temporarily redirects os.Stdout to a new file at path.
func withStdout(t *testing.T, path string, fn func()) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = old }()
	fn()
}
