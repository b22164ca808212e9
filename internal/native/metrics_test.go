package native

import (
	"errors"
	"testing"

	"livetm/internal/telemetry"
)

// TestRunOptsMetrics drives AtomicallyOpts with a fresh telemetry
// bundle on every algorithm through some commits, one body error and
// one gate that refuses, and checks every counter the run should move and
// the ones it must not.
func TestRunOptsMetrics(t *testing.T) {
	const commits = 5
	sentinel := errors.New("decline")
	incr := func(tx Txn) error {
		v, err := tx.Read(0)
		if err != nil {
			return err
		}
		return tx.Write(0, v+1)
	}
	for _, info := range Algorithms() {
		t.Run(info.Name, func(t *testing.T) {
			tm, err := info.New(1)
			if err != nil {
				t.Fatal(err)
			}
			m := NewTxMetrics(telemetry.NewRegistry(), info.Name)
			opts := RunOpts{Metrics: m}
			for i := 0; i < commits; i++ {
				if err := tm.AtomicallyOpts(opts, incr); err != nil {
					t.Fatal(err)
				}
			}
			err = tm.AtomicallyOpts(opts, func(tx Txn) error {
				if err := incr(tx); err != nil {
					return err
				}
				return sentinel
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("body error: got %v", err)
			}
			stop := make(chan struct{})
			close(stop)
			stopped := opts
			stopped.Gate = stopGate(stop)
			if err := tm.AtomicallyOpts(stopped, incr); !errors.Is(err, ErrStopped) {
				t.Fatalf("stopped run: got %v, want ErrStopped", err)
			}
			for _, c := range []struct {
				name string
				got  *telemetry.Counter
				want uint64
			}{
				{"starts", m.Starts, commits + 2},
				{"commits", m.Commits, commits},
				{"aborts{abandoned}", m.AbortAbandoned, 1},
				{"aborts{stopped}", m.AbortStopped, 1},
				{"aborts{conflict}", m.AbortConflict, 0},
				{"aborts{operation}", m.AbortOperation, 0},
				{"retries", m.Retries, 0},
			} {
				if got := c.got.Load(); got != c.want {
					t.Errorf("%s = %d, want %d", c.name, got, c.want)
				}
			}
			if st := tm.Stats(); st.Commits != commits || st.Aborts != 0 {
				t.Errorf("Stats = %+v, want %d commits and no aborts", st, commits)
			}
		})
	}
}
