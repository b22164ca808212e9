package safety_test

import (
	"fmt"

	"livetm/internal/model"
	"livetm/internal/safety"
)

// Check the paper's Figure 3 (a lost update): neither opaque nor
// strictly serializable.
func ExampleCheckOpacity() {
	h := model.NewBuilder().
		Read(1, 0, 0).
		Read(2, 0, 0).Write(2, 0, 1).Commit(2).
		Write(1, 0, 1).Commit(1).
		History()
	res, _ := safety.CheckOpacity(h)
	fmt.Println("opaque:", res.Holds)
	ss, _ := safety.CheckStrictSerializability(h)
	fmt.Println("strictly serializable:", ss.Holds)
	// Output:
	// opaque: false
	// strictly serializable: false
}

// A witness serialization proves opacity.
func ExampleResult_WitnessHistory() {
	h := model.NewBuilder().
		Write(1, 0, 1).Commit(1).
		Read(2, 0, 1).Commit(2).
		History()
	res, _ := safety.CheckOpacity(h)
	fmt.Println(res.Holds)
	for _, t := range res.Witness {
		fmt.Println(t.ID(), t.Status)
	}
	// Output:
	// true
	// T1.0 committed
	// T2.0 committed
}

// A history past the search's 64-transaction cap is decided segment by
// segment at quiescent cuts, without a witness.
func ExampleCheckOpacity_longHistory() {
	b := model.NewBuilder()
	for i := 0; i < 100; i++ {
		p := model.Proc(i%2 + 1)
		b.Read(p, 0, model.Value(i)).Write(p, 0, model.Value(i+1)).Commit(p)
	}
	res, _ := safety.CheckOpacity(b.History())
	fmt.Println(res.Holds, res.Witness == nil)
	// Output:
	// true true
}
