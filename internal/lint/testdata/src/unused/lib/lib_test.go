package lib

import (
	"testing"

	"fixture/testonly"
)

func TestOnlyImport(t *testing.T) {
	var _ testonly.I = (*testonly.T)(nil)
}
