package native

import (
	"sync/atomic"
	"testing"
)

// BenchmarkTxn times one committed transaction per algorithm and
// shape, on one goroutine and under RunParallel, with its allocations.
// The shapes are eight reads, tm-direct's update (one read and two
// increments), and blind write sets of 64 and 4 096 variables: the
// last is far past the write log's scan threshold, so its ns/op
// growing linearly with the write count is what shows the log's index
// keeps a big transaction off the quadratic path.
//
//	go test -run '^$' -bench Txn -benchmem ./internal/native
func BenchmarkTxn(b *testing.B) {
	const vars = maxStripes
	writes := func(n int) func(Txn, int) error {
		return func(tx Txn, base int) error {
			for k := 0; k < n; k++ {
				if err := tx.Write((base+k)%vars, int64(k)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	shapes := []struct {
		name string
		body func(tx Txn, base int) error
	}{
		{"read8", func(tx Txn, base int) error {
			for k := 0; k < 8; k++ {
				if _, err := tx.Read((base + k) % vars); err != nil {
					return err
				}
			}
			return nil
		}},
		{"read1-incr2", func(tx Txn, base int) error {
			if _, err := tx.Read(base % vars); err != nil {
				return err
			}
			for k := 1; k <= 2; k++ {
				i := (base + 7*k) % vars
				v, err := tx.Read(i)
				if err != nil {
					return err
				}
				if err := tx.Write(i, v+1); err != nil {
					return err
				}
			}
			return nil
		}},
		{"write64", writes(64)},
		{"write4096", writes(4096)},
	}
	for _, info := range Algorithms() {
		for _, sh := range shapes {
			b.Run(info.Name+"/"+sh.name, func(b *testing.B) {
				tm, err := info.New(vars)
				if err != nil {
					b.Fatal(err)
				}
				b.Run("serial", func(b *testing.B) {
					b.ReportAllocs()
					base := 0
					fn := func(tx Txn) error { return sh.body(tx, base) }
					for i := 0; b.Loop(); i++ {
						base = i * 64
						if err := tm.Atomically(fn); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run("parallel", func(b *testing.B) {
					b.ReportAllocs()
					var seeds atomic.Uint64
					b.RunParallel(func(pb *testing.PB) {
						state := seeds.Add(0x9e3779b97f4a7c15) | 1
						base := 0
						fn := func(tx Txn) error { return sh.body(tx, base) }
						for pb.Next() {
							state ^= state << 13
							state ^= state >> 7
							state ^= state << 17
							base = int(state % vars)
							if err := tm.Atomically(fn); err != nil {
								b.Error(err)
								return
							}
						}
					})
				})
			})
		}
	}
}
