// Package lib is reached from main; its dead declarations are flagged
// one by one.
package lib

// Used is called from main.
func Used() { calledByUsed() }

func calledByUsed() {}

// Ident is generic: main's instance keeps the origin alive.
func Ident[T any](x T) T { return x }

// Box is generic: main calls Unbox on an instance of it.
type Box[T any] struct{ v T }

// Unbox is in no interface; the instance's method counts as its use.
func (b Box[T]) Unbox() T { return b.v }

func init() { initOnly() }

func initOnly() {}

func deadFunc() {} // want: func lib.deadFunc

type deadType int // want: type lib.deadType

var deadVar = 1 // want: var lib.deadVar

const deadConst = 2 // want: const lib.deadConst

// ping and pong only call each other: a dead cycle.
func ping(n int) { pong(n - 1) } // want: func lib.ping

func pong(n int) { ping(n) } // want: func lib.pong

// orphan's only caller is itself dead.
func deadCaller() { orphan() } // want: func lib.deadCaller

func orphan() {} // want: func lib.orphan

// Shape is a module interface: its method names keep methods alive.
type Shape interface{ Area() int }

// Square is live through main.
type Square struct{}

// Area is kept by Shape.
func (Square) Area() int { return 1 }

// String is kept by fmt.Stringer, an interface of the import graph.
func (Square) String() string { return "square" }

// Perimeter is in no interface and nothing calls it.
func (Square) Perimeter() int { return 4 } // want: method lib.Square.Perimeter

// WrapErr is live through main.
type WrapErr struct{ Err error }

func (e WrapErr) Error() string { return e.Err.Error() }

// Unwrap is kept: errors.Is asserts it through an interface local to
// its function body.
func (e WrapErr) Unwrap() error { return e.Err }

//lint:allow(unused) kept to show a suppressing directive
func allowedDead() { keptByAllowed() }

// keptByAllowed is used only by an allowed declaration, which is a root.
func keptByAllowed() {}
