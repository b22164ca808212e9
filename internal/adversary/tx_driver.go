package adversary

import (
	"context"
	"time"

	"livetm/internal/model"
)

// Txns opens interactive transactions: a native session in process, or
// a served one over the wire.
type Txns interface {
	// Begin opens a transaction pinned to worker; process p runs on
	// worker p-1.
	Begin(ctx context.Context, worker int) (Txn, error)
}

// Txn is one open interactive transaction. It spans attempts: an
// aborted operation leaves it open, and the next operation lands on a
// fresh attempt. A non-nil error means the call could not complete —
// ctx ended first, or the transaction ended under it.
type Txn interface {
	// Read reads variable i; aborted reports that the attempt ended on
	// the read.
	Read(ctx context.Context, i int) (val int64, aborted bool, err error)
	// Write buffers v into variable i; aborted as for Read.
	Write(ctx context.Context, i int, v int64) (aborted bool, err error)
	// Commit hands the open attempt to the commit path. retrying means
	// the commit aborted and the transaction is open again; otherwise it
	// is over, committed or not.
	Commit(ctx context.Context) (committed, retrying bool, err error)
	// Abandon tears the transaction down, releasing what it holds.
	Abandon(ctx context.Context) error
}

// TxDriver drives the strategies over interactive transactions: each
// process holds one open across driver actions, which is what lets the
// adversary keep p1's transaction open while p2 commits on real
// hardware. Process p's transaction is pinned to worker p-1, so it
// records as process p. An aborted operation is a failed action with
// the transaction still open (the strategies' "on abort, return to
// Step 1"), a retrying commit likewise, and an action that outlasts
// Config.BlockTimeout is the TM blocking the process.
type TxDriver struct {
	txns  Txns
	cfg   Config
	after func() // called after each action; nil for none

	open    [2]Txn
	crashed [2]bool
}

// NewTxDriver creates a driver opening its transactions through txns.
func NewTxDriver(txns Txns, cfg Config) *TxDriver {
	return &TxDriver{txns: txns, cfg: cfg.withDefaults()}
}

// Run executes strategy s, calling after (may be nil) once each action
// returned, then abandons whatever transactions are still open —
// including a crashed process's — so that the serving session can
// drain. It errors only on an invalid strategy.
func (d *TxDriver) Run(s Strategy, after func()) (Outcome, error) {
	if err := s.validate(); err != nil {
		return Outcome{}, err
	}
	d.after = after
	o := drive(d, s, d.cfg)
	for i, tx := range d.open {
		if tx == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = tx.Abandon(ctx) // best effort: the outcome is already decided
		cancel()
		d.open[i] = nil
	}
	return o, nil
}

// action returns one action's budget, and the function that ends it.
func (d *TxDriver) action() (context.Context, func()) {
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.BlockTimeout)
	return ctx, func() {
		cancel()
		if d.after != nil {
			d.after()
		}
	}
}

// tx returns process p's open transaction, beginning one if none is.
func (d *TxDriver) tx(ctx context.Context, p int) (Txn, bool) {
	i := p - 1
	if d.open[i] == nil {
		tx, err := d.txns.Begin(ctx, i)
		if err != nil {
			return nil, false
		}
		d.open[i] = tx
	}
	return d.open[i], true
}

// Read implements Driver: one read of x inside p's open transaction.
func (d *TxDriver) Read(p int) StepResult {
	if d.crashed[p-1] {
		return StepResult{Blocked: true}
	}
	ctx, end := d.action()
	defer end()
	tx, ok := d.tx(ctx, p)
	if !ok {
		return StepResult{Blocked: true}
	}
	v, aborted, err := tx.Read(ctx, int(X))
	if err != nil {
		return StepResult{Blocked: true}
	}
	return StepResult{Val: model.Value(v), OK: !aborted}
}

// Finish implements Driver: p writes v+1 and commits its open
// transaction.
func (d *TxDriver) Finish(p int, v model.Value) StepResult {
	if d.crashed[p-1] || d.open[p-1] == nil {
		return StepResult{Blocked: true}
	}
	ctx, end := d.action()
	defer end()
	return d.commit(ctx, p, int64(v))
}

// Attempt implements Driver: one whole transaction attempt — read x,
// write the value plus one, commit.
func (d *TxDriver) Attempt(p int) StepResult {
	if d.crashed[p-1] {
		return StepResult{Blocked: true}
	}
	ctx, end := d.action()
	defer end()
	tx, ok := d.tx(ctx, p)
	if !ok {
		return StepResult{Blocked: true}
	}
	v, aborted, err := tx.Read(ctx, int(X))
	switch {
	case err != nil:
		return StepResult{Blocked: true}
	case aborted:
		return StepResult{}
	}
	return d.commit(ctx, p, v)
}

// commit writes v+1 into x in p's open transaction and commits it.
func (d *TxDriver) commit(ctx context.Context, p int, v int64) StepResult {
	i := p - 1
	tx := d.open[i]
	aborted, err := tx.Write(ctx, int(X), v+1)
	switch {
	case err != nil:
		return StepResult{Blocked: true}
	case aborted:
		return StepResult{}
	}
	committed, retrying, err := tx.Commit(ctx)
	switch {
	case err != nil:
		return StepResult{Blocked: true}
	case retrying:
		return StepResult{}
	}
	d.open[i] = nil
	return StepResult{OK: committed}
}

// Crash implements Driver: p takes no further steps, and its open
// transaction stays open, holding whatever it holds — on a blocking TM
// that wedges everyone else, which is exactly Figure 9's point.
func (d *TxDriver) Crash(p int) { d.crashed[p-1] = true }
