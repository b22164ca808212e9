package linear

import (
	"errors"
	"testing"

	"livetm/internal/model"
	"livetm/internal/sim"
	"livetm/internal/stm"
	"livetm/internal/stm/dstm"
	"livetm/internal/stm/ostm"
	"livetm/internal/stm/tl2"
	"livetm/internal/workload"
)

func TestRegisterSpecBasics(t *testing.T) {
	ops := []Op{
		{Proc: 1, Name: "write", Arg: 5, OK: true, Start: 1, End: 2},
		{Proc: 2, Name: "read", Ret: 5, OK: true, Start: 3, End: 4},
	}
	res, err := Check(RegisterSpec{}, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatal("sequential write-then-read must linearize")
	}
	// Reading a value never written, strictly after the write of 5.
	ops[1].Ret = 9
	res, _ = Check(RegisterSpec{}, ops)
	if res.Holds {
		t.Fatal("reading 9 after writing 5 must fail")
	}
}

func TestRegisterConcurrentReorders(t *testing.T) {
	// Overlapping write(5) and read->0: the read may linearize first.
	ops := []Op{
		{Proc: 1, Name: "write", Arg: 5, OK: true, Start: 1, End: 10},
		{Proc: 2, Name: "read", Ret: 0, OK: true, Start: 2, End: 3},
	}
	res, err := Check(RegisterSpec{}, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatal("overlapping read may order before the write")
	}
	if len(res.Witness) != 2 || res.Witness[0] != 1 {
		t.Errorf("witness = %v, want the read first", res.Witness)
	}
}

func TestQueueSpec(t *testing.T) {
	q := QueueSpec{Capacity: 2}
	tests := []struct {
		name string
		ops  []Op
		want bool
	}{
		{
			"fifo order",
			[]Op{
				{Name: "enqueue", Arg: 1, OK: true, Start: 1, End: 2},
				{Name: "enqueue", Arg: 2, OK: true, Start: 3, End: 4},
				{Name: "dequeue", Ret: 1, OK: true, Start: 5, End: 6},
				{Name: "dequeue", Ret: 2, OK: true, Start: 7, End: 8},
			},
			true,
		},
		{
			"lifo order is not a queue",
			[]Op{
				{Name: "enqueue", Arg: 1, OK: true, Start: 1, End: 2},
				{Name: "enqueue", Arg: 2, OK: true, Start: 3, End: 4},
				{Name: "dequeue", Ret: 2, OK: true, Start: 5, End: 6},
			},
			false,
		},
		{
			"spurious empty",
			[]Op{
				{Name: "enqueue", Arg: 1, OK: true, Start: 1, End: 2},
				{Name: "dequeue", OK: false, Start: 3, End: 4},
			},
			false,
		},
		{
			"overlapping empty is fine",
			[]Op{
				{Name: "enqueue", Arg: 1, OK: true, Start: 2, End: 5},
				{Name: "dequeue", OK: false, Start: 1, End: 3},
			},
			true,
		},
		{
			"full at capacity",
			[]Op{
				{Name: "enqueue", Arg: 1, OK: true, Start: 1, End: 2},
				{Name: "enqueue", Arg: 2, OK: true, Start: 3, End: 4},
				{Name: "enqueue", Arg: 3, OK: false, Start: 5, End: 6},
			},
			true,
		},
		{
			"spurious full",
			[]Op{
				{Name: "enqueue", Arg: 1, OK: true, Start: 1, End: 2},
				{Name: "enqueue", Arg: 2, OK: false, Start: 3, End: 4},
			},
			false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Check(q, tt.ops)
			if err != nil {
				t.Fatal(err)
			}
			if res.Holds != tt.want {
				t.Errorf("Holds = %v, want %v", res.Holds, tt.want)
			}
		})
	}
}

func TestCheckValidation(t *testing.T) {
	if _, err := Check(RegisterSpec{}, []Op{{Start: 5, End: 2}}); err == nil {
		t.Error("End < Start must be rejected")
	}
	big := make([]Op, 70)
	if _, err := Check(RegisterSpec{}, big); !errors.Is(err, ErrTooManyOps) {
		t.Error("want ErrTooManyOps")
	}
	res, err := Check(RegisterSpec{}, nil)
	if err != nil || !res.Holds {
		t.Error("empty log is linearizable")
	}
}

// txQueue is a bounded FIFO queue over t-variables 0 (head index),
// 1 (tail index) and 2..2+cap (slots), each operation one transaction.
type txQueue struct {
	tm  stm.TM
	cap int
}

// enqueue appends v; false when the queue is full at commit time.
func (q *txQueue) enqueue(env *sim.Env, v model.Value) bool {
	var full bool
	workload.Atomically(q.tm, env, func(tx *workload.Tx) {
		head, tail := tx.Read(0), tx.Read(1)
		if full = int(tail-head) >= q.cap; !full {
			tx.Write(2+model.TVar(int(tail)%q.cap), v)
			tx.Write(1, tail+1)
		}
	})
	return !full
}

// dequeue removes the oldest element; false when the queue is empty.
func (q *txQueue) dequeue(env *sim.Env) (model.Value, bool) {
	var v model.Value
	var empty bool
	workload.Atomically(q.tm, env, func(tx *workload.Tx) {
		head, tail := tx.Read(0), tx.Read(1)
		if empty = head == tail; !empty {
			v = tx.Read(2 + model.TVar(int(head)%q.cap))
			tx.Write(0, head+1)
		}
	})
	return v, !empty
}

// TestTransactionalQueueLinearizable runs concurrent producers and a
// consumer on a transactional queue over several TMs and seeds,
// collects the operation log, and checks it against the FIFO spec.
func TestTransactionalQueueLinearizable(t *testing.T) {
	factories := map[string]stm.Factory{
		"tl2":  func(n, v int) stm.TM { return tl2.New() },
		"dstm": func(n, v int) stm.TM { return dstm.New() },
		"ostm": func(n, v int) stm.TM { return ostm.New() },
	}
	for name, f := range factories {
		f := f
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				log := &Log{}
				q := &txQueue{tm: f(3, 10), cap: 4}
				s := sim.New(sim.NewSeeded(seed))
				producer := func(base int64, count int) func(*sim.Env) {
					return func(env *sim.Env) {
						for k := 0; k < count; {
							v := base + int64(k)
							start := log.Begin()
							ok := q.enqueue(env, model.Value(v))
							log.End(start, Op{Proc: int(env.Proc()), Name: "enqueue", Arg: v, OK: ok})
							if ok {
								k++ // retry the same item when the queue was full
							}
						}
					}
				}
				_ = s.Spawn(1, producer(100, 4))
				_ = s.Spawn(2, producer(200, 4))
				_ = s.Spawn(3, func(env *sim.Env) {
					for got := 0; got < 6; {
						start := log.Begin()
						v, ok := q.dequeue(env)
						log.End(start, Op{Proc: 3, Name: "dequeue", Ret: int64(v), OK: ok})
						if ok {
							got++
						}
					}
				})
				if steps := s.Run(200000); steps >= 200000 {
					t.Fatal("queue workload wedged")
				}
				s.Close()
				ops := log.Ops()
				if len(ops) > 40 {
					ops = ops[:40] // keep the check fast; prefix-closed
				}
				res, err := Check(QueueSpec{Capacity: 4}, ops)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Holds {
					t.Fatalf("seed %d: queue log not linearizable:\n%v", seed, ops)
				}
			}
		})
	}
}

// TestBrokenQueueCaught: a racy, non-transactional queue produces a
// non-linearizable log under some schedule.
func TestBrokenQueueCaught(t *testing.T) {
	found := false
	for seed := uint64(1); seed <= 60 && !found; seed++ {
		log := &Log{}
		var items []int64
		s := sim.New(sim.NewSeeded(seed))
		enqueue := func(env *sim.Env, v int64) {
			start := log.Begin()
			// BUG: read-yield-write on shared state without a TM; a
			// concurrent enqueue between the length read and the
			// truncating append is silently dropped (lost update).
			n := len(items)
			env.Yield()
			if n > len(items) {
				n = len(items)
			}
			items = append(items[:n:n], v)
			log.End(start, Op{Proc: int(env.Proc()), Name: "enqueue", Arg: v, OK: true})
		}
		dequeue := func(env *sim.Env) {
			start := log.Begin()
			if len(items) == 0 {
				env.Yield()
				log.End(start, Op{Proc: int(env.Proc()), Name: "dequeue", OK: false})
				return
			}
			v := items[0]
			env.Yield()
			if len(items) > 0 {
				items = items[1:]
			}
			log.End(start, Op{Proc: int(env.Proc()), Name: "dequeue", Ret: v, OK: true})
		}
		_ = s.Spawn(1, func(env *sim.Env) {
			for i := int64(1); i <= 4; i++ {
				enqueue(env, i)
			}
		})
		_ = s.Spawn(2, func(env *sim.Env) {
			for i := int64(11); i <= 14; i++ {
				enqueue(env, i)
			}
		})
		_ = s.Spawn(3, func(env *sim.Env) {
			for i := 0; i < 6; i++ {
				dequeue(env)
			}
		})
		s.Run(20000)
		s.Close()
		res, err := Check(QueueSpec{}, log.Ops())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Holds {
			found = true
		}
	}
	if !found {
		t.Error("the racy queue should produce a non-linearizable log under some seed")
	}
}
