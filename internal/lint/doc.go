// Package lint is livetm's domain-specific static-analysis suite: a
// zero-dependency driver (go list + go/parser + go/types, no
// golang.org/x/tools) running analyzers that prove the repository's
// concurrency and determinism invariants, and that every declaration
// is reachable from a main package, at compile time.
//
// The driver (Load) shells out to `go list -deps -export -json` for
// the package graph and the build cache's export data, parses the
// module's own packages with go/parser, and type-checks them in
// dependency order with go/types, importing dependencies from their
// compiled export files. Analyze runs every registered analyzer over
// the resulting whole-program view; several rules are inherently
// cross-package (a sentinel declared in internal/engine must agree
// with tables in internal/server and a consumer in internal/client),
// which is why the analyzers receive the full Program rather than one
// package at a time.
//
// # Rule catalog
//
// atomicmix — a memory location accessed through sync/atomic anywhere
// must be accessed atomically everywhere. A plain read or write of a
// field that elsewhere flows into atomic.AddInt64/Load/Store/Swap/CAS
// is a data race waiting for the scheduler to expose it; the fix is
// another atomic access or a typed atomic (sync/atomic.Int64 and
// friends). Composite-literal keyed fields and &x arguments to the
// atomic calls themselves are exempt.
//
// lockorder — every sync.Mutex/RWMutex Lock (and RLock) must be
// paired with an Unlock on all paths out of the function, either
// deferred or on each return.
//
// wiresentinel — every exported Err* sentinel in internal/engine must
// round-trip the wire: internal/server's CodeOf maps it to a stable
// code, SentinelOf maps that code back to the identical sentinel, and
// internal/client must consume SentinelOf so errors.Is works across
// the wire. One-way tables, missing codes, and disagreeing mappings
// are each distinct findings. Sentinels that never cross the wire
// carry an allow directive saying so.
//
// determinism — the deterministic-by-contract code (all of
// internal/sim; the loadgen plan-compile files arrival.go and
// scenario.go; any file marked //lint:deterministic) must not reach
// time.Now, the process-global math/rand generator, or range over a
// map (iteration order is randomized). These are exactly the paths
// whose byte-identical replay CI asserts; the analyzer also fails if
// a scoped loadgen file disappears, so the scope cannot rot silently.
//
// telemetrylabel — label values passed to telemetry.Registry
// instruments must derive from finite sources (constants, the
// compiled-in engine registry, validated scenario phase lists, …).
// An unbounded label value (request-supplied strings, map lookups,
// reassigned locals) grows a labeled family without bound — the
// admission-state leak class PR 9 fixed. Values are traced through
// single-assignment locals and parameters across call sites up to a
// small depth; anything unresolvable is flagged.
//
// unused — every package and package-level declaration must be
// reachable from some main package; the loader reads non-test sources
// only, so what only tests use belongs in their _test.go files.
// Reachability is a fixed point over identifier uses, so dead cycles
// and callees orphaned by a dead caller are caught. The roots are func
// main of every main package and the init funcs and blank `var _ = …`
// declarations of every package a main package imports. A method of a
// live type is also kept when its name is a method of error, of any
// interface declared at package scope in the import graph (the
// standard library included) or written anywhere in the module, or is
// Unwrap, Is or As, which the errors package asserts dynamically. The
// rule is conservative, since a dynamic call cannot be resolved
// statically. A package no main package imports is reported once, at
// its package clause; one with no declarations is not. Main packages
// are roots, not subjects: their own unreached declarations are not
// reported (bench's inputDigest is one).
// Files a build constraint excludes, such as //go:build ignore
// generators, are not loaded, so what only a generator uses carries an
// allow directive naming it. An allowed declaration, or the whole of
// an allowed package, counts as a root.
//
// # Suppression
//
// The only suppression mechanism is the allow directive:
//
//	//lint:allow(rule[,rule]) reason
//
// The rule list is one or more analyzer names, comma-separated; the
// reason is mandatory prose on the same line — a directive without a
// reason (or with a malformed rule list) is itself reported under the
// unsuppressible rule name "directive". Scope follows placement: in a
// function's doc comment the directive covers the whole function; in
// the package clause's doc comment it covers the whole file; anywhere
// else it covers the directive's comment group plus the next line.
// Keep directives on a single line — gofmt relocates directive
// comments within doc groups, which would strand a wrapped reason.
//
// A separate marker, //lint:deterministic, carries no rules: it opts
// the containing file into the determinism analyzer's scope.
//
// # Fixtures and self-run
//
// testdata/src/* holds one small module per analyzer plus directive
// fixtures, each annotated with `// want: substring` (finding
// expected on that line) or `// want-prev: substring` (on the line
// above, for lines that cannot carry a trailing comment — e.g. a
// malformed directive). lint_test.go runs each analyzer over its
// fixture and matches findings against annotations both ways, and
// TestSelfRunClean runs the full suite over livetm itself, which must
// be clean. cmd/livetm-lint is the CLI: `livetm-lint ./...` exits 0
// when clean, 1 with findings on stderr, 2 on driver errors; CI runs
// it and also asserts a seeded violation fails it.
package lint
