// Package testonly is imported only by a _test.go file: flagged once,
// at its package clause, however many declarations it holds.
package testonly // want: package fixture/testonly is imported by no main package

// I is an interface.
type I interface{ M() }

// T implements I.
type T struct{}

// M is I's method.
func (*T) M() {}

// The blank assertion is no root: no main package imports testonly.
var _ I = (*T)(nil)
