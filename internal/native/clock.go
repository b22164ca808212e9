package native

import "sync/atomic"

// versionClock is TL2's GV1 global version clock: one fetch-add word.
// What TL2 and TinySTM need from the clock is that a transaction that
// ticks after a reader sampled rv gets a write version > rv, and a
// monotone counter advanced by one on every tick gives exactly that.
// Allocated on its own, the padded word fills a 64-byte size class, so
// it shares its cache line with nothing. TL2's GV4/GV5 variants are
// the way out should this word become a commit hot spot.
type versionClock struct {
	v atomic.Uint64
	_ [7]uint64
}

// Sample returns the current time: at least every Tick that completed
// before the sample began.
func (c *versionClock) Sample() uint64 { return c.v.Load() }

// Tick advances the clock and returns the new, unique time.
func (c *versionClock) Tick() uint64 { return c.v.Add(1) }
