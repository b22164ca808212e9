package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"livetm/internal/server"
)

// The benchmark's inputs are a pure function of -seed: every workload
// draws its programs from one splitmix64 stream seeded with the flag
// value mixed with the workload's and the driver's index, so the same
// seed gives byte-identical inputs (inputDigest is the witness) and
// the program under test sees nothing but the generated programs.

// rng is a splitmix64 stream.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// newRNG derives an independent stream for (seed, salt...).
func newRNG(seed uint64, salt ...uint64) *rng {
	r := rng(seed)
	for _, s := range salt {
		r = rng(r.next() ^ s*0xd1342543de82ef95)
	}
	return &r
}

// program is one transaction: reads then read-modify-write increments,
// the shape of server.OpRead/OpIncr programs. Each incr adds exactly 1,
// which is what the conservation check counts.
type program struct {
	reads []int
	incrs []int
}

// txn is the per-attempt handle both native.Txn and engine.Tx satisfy.
type txn interface {
	Read(i int) (int64, error)
	Write(i int, v int64) error
}

// run executes the program on one attempt; it re-reads everything and
// stops at the first failed operation, so it is idempotent across
// retries.
func (p *program) run(tx txn) error {
	for _, v := range p.reads {
		if _, err := tx.Read(v); err != nil {
			return err
		}
	}
	for _, v := range p.incrs {
		x, err := tx.Read(v)
		if err != nil {
			return err
		}
		if err := tx.Write(v, x+1); err != nil {
			return err
		}
	}
	return nil
}

// ops is the program in the wire vocabulary.
func (p *program) ops() []server.Op {
	out := make([]server.Op, 0, len(p.reads)+len(p.incrs))
	for _, v := range p.reads {
		out = append(out, server.Op{Kind: server.OpRead, Var: v})
	}
	for _, v := range p.incrs {
		out = append(out, server.Op{Kind: server.OpIncr, Var: v, Val: 1})
	}
	return out
}

// shape describes how a workload's programs are drawn.
type shape struct {
	// salt separates the workloads' streams under one seed.
	salt uint64
	// drivers is the number of program pools (one per driver).
	drivers int
	// pool is the number of programs per driver; drivers cycle it.
	pool int
	// vars is the variable count; partition > 0 confines driver d to
	// [d*partition, (d+1)*partition) (the disjoint sharing of the
	// workload matrix), 0 draws from all of them.
	vars, partition int
	// readOnlyPct is the share of read-only programs.
	readOnlyPct int
	// roReads is the read count of a read-only program; upReads and
	// upIncrs the read and increment counts of an update.
	roReads, upReads, upIncrs int
}

// generate draws the workload's program pools.
func (s shape) generate(seed uint64) [][]program {
	pools := make([][]program, s.drivers)
	for d := range pools {
		r := newRNG(seed, s.salt, uint64(d))
		pick := func() int {
			if s.partition > 0 {
				return d*s.partition + r.intn(s.partition)
			}
			return r.intn(s.vars)
		}
		// One backing array per driver keeps the pool compact in memory,
		// so cycling it does not measure the allocator's layout.
		perProg := max(s.roReads, s.upReads+s.upIncrs)
		backing := make([]int, 0, s.pool*perProg)
		pool := make([]program, s.pool)
		for i := range pool {
			nr, ni := s.upReads, s.upIncrs
			if r.intn(100) < s.readOnlyPct {
				nr, ni = s.roReads, 0
			}
			start := len(backing)
			for k := 0; k < nr+ni; k++ {
				backing = append(backing, pick())
			}
			pool[i] = program{
				reads: backing[start : start+nr : start+nr],
				incrs: backing[start+nr : start+nr+ni : start+nr+ni],
			}
		}
		pools[d] = pool
	}
	return pools
}

// inputDigest is the determinism witness of a generated input set.
func inputDigest(pools [][]program) string {
	h := sha256.New()
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, pool := range pools {
		put(len(pool))
		for i := range pool {
			put(len(pool[i].reads))
			for _, v := range pool[i].reads {
				put(v)
			}
			put(len(pool[i].incrs))
			for _, v := range pool[i].incrs {
				put(v)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// expected is the per-variable increment count after every driver d has
// committed pool[i%len(pool)] for each i in [0, n) except its indices in
// failed: the conservation check's right-hand side, computed after the
// fact so the timed loop carries no bookkeeping.
func expected(vars int, pools [][]program, n int, failed [][]int) []int64 {
	want := make([]int64, vars)
	for d, pool := range pools {
		full, rem := n/len(pool), n%len(pool)
		for i := range pool {
			times := int64(full)
			if i < rem {
				times++
			}
			for _, v := range pool[i].incrs {
				want[v] += times
			}
		}
		for _, i := range failed[d] {
			for _, v := range pool[i%len(pool)].incrs {
				want[v]--
			}
		}
	}
	return want
}
