package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRun executes the whole figure regeneration and compares its
// output with testdata/figures.golden byte for byte. Every checker
// verdict inside is asserted by run itself (it errors on any
// discrepancy such as Hex being rejected); the golden additionally
// pins the rendered histories, so a change to the simulator, a TM or
// the adversary that moves any figure fails here.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got := bytes.Split(out.Bytes(), []byte("\n"))
		exp := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(exp); i++ {
			if !bytes.Equal(got[i], exp[i]) {
				t.Fatalf("output differs from testdata/figures.golden at line %d:\n got: %s\nwant: %s", i+1, got[i], exp[i])
			}
		}
		t.Fatalf("output has %d lines, testdata/figures.golden %d", len(got), len(exp))
	}
}
