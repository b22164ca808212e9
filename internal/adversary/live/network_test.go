package live

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"livetm/internal/adversary"
	"livetm/internal/client"
	"livetm/internal/engine"
	"livetm/internal/model"
	"livetm/internal/server"
)

// startNetTM serves a fresh session over loopback, of the kind
// RunNative drives in process: the environment the network adversary
// attacks. Quiescent cuts are disabled — the strategies hold
// transactions open across round trips, which would stall a cut's
// rendezvous (see the engine docs).
func startNetTM(t *testing.T, engineName string) (*server.Server, *client.Client) {
	t.Helper()
	cfg := sessionConfig
	cfg.Engine = engineName
	sess, err := engine.Open(cfg)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	srv := server.New(sess, server.Config{
		Info: server.InfoResponse{Engine: engineName, Workers: 2, Vars: 1, Live: true},
	})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, _ = srv.Drain(ctx)
		hs.Close()
	})
	return srv, client.New(client.Config{Addr: hs.URL, Name: "adversary"})
}

// TestNetworkAdversaryDichotomy reproduces the paper's no-local-
// progress dichotomy with the adversary running as a network client:
// over the wire, against an opaque TM, p2 commits every round while
// p1 never does — and the served session's own monitor measures p1's
// starvation at the protocol boundary.
func TestNetworkAdversaryDichotomy(t *testing.T) {
	if testing.Short() {
		t.Skip("network adversary runs are round-trip heavy")
	}
	for _, s := range []adversary.Strategy{{Algorithm: 1}, {Algorithm: 2, Parasitic: true}} {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			_, c := startNetTM(t, "native-tl2")
			cfg := adversary.Config{Rounds: 6, BlockTimeout: 5 * time.Second}
			outcome, err := RunNetwork(c, s, cfg)
			if err != nil {
				t.Fatalf("RunNetwork: %v", err)
			}
			if outcome.Blocked {
				t.Fatalf("adversary blocked: %+v", outcome)
			}
			if outcome.P1Committed {
				t.Fatalf("p1 committed against an opaque TM: %+v", outcome)
			}
			if outcome.Rounds != cfg.Rounds {
				t.Fatalf("p2 committed %d rounds, want %d", outcome.Rounds, cfg.Rounds)
			}
			if !outcome.LocalProgressViolated() {
				t.Fatalf("local progress not violated: %+v", outcome)
			}

			// Drain through the same wire the adversary used: the final
			// report must show p1 (worker 0 records as Proc 1) starving
			// while p2 progressed.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			dr, err := c.Drain(ctx)
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
			if dr.Report == nil {
				t.Fatalf("drain returned no monitor report")
			}
			intervals := dr.Report.StarvationIntervals()
			if len(intervals[model.Proc(1)]) == 0 {
				t.Fatalf("p1 starvation intervals empty: %+v", intervals)
			}
			var p1, p2 *struct {
				commits uint64
				class   string
			}
			for _, pr := range dr.Report.Procs {
				v := struct {
					commits uint64
					class   string
				}{pr.Commits, pr.Class}
				switch pr.Proc {
				case 1:
					p1 = &v
				case 2:
					p2 = &v
				}
			}
			if p1 == nil || p2 == nil {
				t.Fatalf("report procs incomplete: %+v", dr.Report.Procs)
			}
			if p1.commits != 0 {
				t.Fatalf("p1 commits = %d, want 0", p1.commits)
			}
			if p2.commits == 0 {
				t.Fatalf("p2 never committed in the monitored stream")
			}
		})
	}
}

// TestNetworkAdversaryCrash runs the Figure 9 variant over the wire:
// p1 crashes after its first read, its transaction stays open
// server-side, and p2 — on an obstruction-free TM — keeps committing
// anyway.
func TestNetworkAdversaryCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("network adversary runs are round-trip heavy")
	}
	_, c := startNetTM(t, "native-tl2")
	cfg := adversary.Config{Rounds: 4, BlockTimeout: 5 * time.Second}
	outcome, err := RunNetwork(c, adversary.Strategy{Algorithm: 1, Crash: true}, cfg)
	if err != nil {
		t.Fatalf("RunNetwork: %v", err)
	}
	if outcome.Blocked || outcome.P1Committed {
		t.Fatalf("unexpected outcome: %+v", outcome)
	}
	if outcome.Rounds != cfg.Rounds {
		t.Fatalf("p2 committed %d rounds, want %d", outcome.Rounds, cfg.Rounds)
	}
}
