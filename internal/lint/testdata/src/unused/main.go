// Command fixture is the one root of the unused fixture.
package main

import (
	"errors"
	"fmt"
	"io"

	"fixture/lib"
)

func main() {
	lib.Used()
	var s lib.Shape = lib.Square{}
	fmt.Println(s.Area(), lib.Ident(3), lib.Box[int]{}.Unbox())
	fmt.Println(errors.Is(lib.WrapErr{Err: io.EOF}, io.EOF))
}

// mainOnly is unreached, but main packages are roots, not subjects.
func mainOnly() {}
