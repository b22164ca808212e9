package native

import (
	"reflect"
	"sync/atomic"
)

// A single fetch-add version clock is the classic TL2 scalability
// bottleneck: every commit serializes on one cache line. This clock
// shards the counter: logical time is the maximum over the shards,
// shard s only ever holds values congruent to s modulo clockShards
// (so write versions stay globally unique), and a commit advances one
// shard to a value strictly above the maximum it scanned.
//
// Correctness argument (what TL2/TinySTM need from the clock): shard
// values are monotone, so if a Sample completes before a Tick begins,
// the Tick's scan reads every shard at least as high as the Sample
// did, and its result strictly exceeds the sampled value. That is
// exactly the property the single-word clock provides — a transaction
// that ticks after a reader sampled rv gets a write version > rv —
// while spreading commit traffic across clockShards cache lines.
//
// The TMs' commit and abort counters follow the same rule (counters in
// native.go): one padded slot per shard, picked by shardOf, summed
// only when Stats is read.

// clockShards is a power of two.
const clockShards = 8

type clockShard struct {
	v atomic.Uint64
	_ [7]uint64
}

type shardedClock struct {
	shards [clockShards]clockShard
}

func newShardedClock() *shardedClock {
	c := &shardedClock{}
	// Shard s starts at s, establishing the residue invariant.
	for i := range c.shards {
		c.shards[i].v.Store(uint64(i))
	}
	return c
}

// Sample returns the current logical time: at least every Tick that
// completed before the sample began, never ahead of real time.
func (c *shardedClock) Sample() uint64 {
	var m uint64
	for i := range c.shards {
		if v := c.shards[i].v.Load(); v > m {
			m = v
		}
	}
	return m
}

// Tick advances shard s (mod clockShards) to a fresh globally-unique
// value strictly above the current logical time and returns it.
func (c *shardedClock) Tick(s int) uint64 {
	s &= clockShards - 1
	for {
		m := c.Sample()
		cur := c.shards[s].v.Load()
		if cur > m {
			m = cur
		}
		// Smallest value ≡ s (mod clockShards) strictly above m.
		next := m - m%clockShards + uint64(s)
		for next <= m {
			next += clockShards
		}
		if c.shards[s].v.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// shardOf derives a clock shard from an attempt's heap address, a
// zero-contention stand-in for a CPU id: concurrent committers live
// at different addresses and so spread across shards, without a
// shared round-robin counter reintroducing the hot spot.
func shardOf(tx any) int {
	return int(reflect.ValueOf(tx).Pointer()>>5) & (clockShards - 1)
}
