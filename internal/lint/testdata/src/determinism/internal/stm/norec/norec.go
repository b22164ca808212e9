// Package norec is in determinism scope by path: every file of
// internal/stm and its subpackages runs under the simulator, whose
// histories must be pure functions of their seed.
package norec

// Publish ranges over a map: iteration order is randomized.
func Publish(writes map[int32]int64, store []int64) {
	for x, v := range writes { // want: map iteration order
		store[x] = v
	}
}

// PublishLog ranges over a slice: order is positional, fine.
func PublishLog(xs []int32, vs []int64, store []int64) {
	for i, x := range xs {
		store[x] = vs[i]
	}
}
