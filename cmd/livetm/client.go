package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"livetm/internal/adversary"
	"livetm/internal/adversary/netadv"
	"livetm/internal/client"
	"livetm/internal/engine"
	"livetm/internal/server"
)

func setupClient(fs *flag.FlagSet) func() error {
	addr := fs.String("addr", "127.0.0.1:8722", "server address (livetm serve -listen)")
	name := fs.String("name", "", "client identity for per-client fairness accounting (default livetm-<pid>)")
	clients := fs.Int("clients", 4, "concurrent load connections")
	ops := fs.Int("ops", 200, "programs each connection submits (load mode)")
	strategyName := fs.String("strategy", "", "run this adversary strategy over the wire instead of load: alg1, alg1-crash, alg2 or alg2-parasitic")
	rounds := fs.Int("rounds", 10, "p2 commits to sample (-strategy)")
	blockTimeout := fs.Duration("block-timeout", 5*time.Second, "per-action budget before the TM counts as blocking (-strategy)")
	drain := fs.Bool("drain", false, "after the run, gracefully drain the server and print its final monitor report")
	return func() error {
		ident := *name
		if ident == "" {
			ident = fmt.Sprintf("livetm-%d", os.Getpid())
		}
		c := client.New(client.Config{Addr: *addr, Name: ident})
		ctx := context.Background()
		info, err := c.Info(ctx)
		if err != nil {
			return fmt.Errorf("client: %s: %w", *addr, err)
		}
		fmt.Printf("client: %s serving %s (%d workers, %d vars, live=%v)\n",
			*addr, info.Engine, info.Workers, info.Vars, info.Live)
		if *strategyName != "" {
			err = clientStrategy(c, info, *strategyName, adversary.Config{Rounds: *rounds, BlockTimeout: *blockTimeout})
		} else {
			err = clientLoad(ctx, c, info, ident, *clients, *ops)
		}
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		if *drain {
			dctx, cancel := context.WithTimeout(ctx, time.Minute)
			defer cancel()
			res, err := c.Drain(dctx)
			if err != nil {
				return fmt.Errorf("client: drain: %w", err)
			}
			fmt.Printf("client: server drained: commits=%d aborts=%d no-commits=%d\n",
				res.Stats.Commits, res.Stats.Aborts, res.Stats.NoCommits)
			printReport(res.Report)
			if res.Code != "" {
				return fmt.Errorf("client: server closed with %s: %s", res.Code, res.Error)
			}
		}
		return nil
	}
}

// clientStrategy runs a Theorem 1 environment strategy against the
// served TM, each process an interactive wire transaction.
func clientStrategy(c *client.Client, info server.InfoResponse, name string, cfg adversary.Config) error {
	variants := adversary.Variants()
	i := slices.IndexFunc(variants, func(s adversary.Strategy) bool { return s.Name() == name })
	if i < 0 {
		return fmt.Errorf("unknown strategy %q (alg1, alg1-crash, alg2, alg2-parasitic)", name)
	}
	if info.Workers < 2 {
		return fmt.Errorf("the adversary needs 2 workers, the server has %d", info.Workers)
	}
	outcome, err := netadv.RunNetwork(c, variants[i], cfg)
	if err != nil {
		return err
	}
	fmt.Printf("client: strategy %s: rounds=%d p1-committed=%v blocked=%v local-progress-violated=%v\n",
		name, outcome.Rounds, outcome.P1Committed, outcome.Blocked, outcome.LocalProgressViolated())
	return nil
}

// clientLoad runs clients connections, named ident-0, ident-1, ...,
// that each commit ops increment programs, backing off on overload
// refusals as the server's hints say, and prints the tally and the
// server's stats.
func clientLoad(ctx context.Context, c *client.Client, info server.InfoResponse, ident string, clients, ops int) error {
	if clients <= 0 || ops <= 0 {
		return fmt.Errorf("-clients and -ops must be positive")
	}
	var committed, retries atomic.Uint64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	start := time.Now()
	for id := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc := c.WithName(fmt.Sprintf("%s-%d", ident, id))
			prog := []server.Op{{Kind: server.OpIncr, Var: id % info.Vars, Val: 1}}
			var backoff client.Backoff
			for n := 0; n < ops; {
				res, err := cc.Exec(ctx, engine.AnyWorker, prog)
				var werr *client.Error
				switch {
				case err == nil:
					if res.Committed {
						committed.Add(1)
					}
					backoff.Reset()
					n++
				case errors.Is(err, engine.ErrOverloaded) && errors.As(err, &werr):
					// The 429 path: the server's hint floors the wait,
					// jitter above it de-herds the retries.
					retries.Add(1)
					time.Sleep(backoff.Next(werr.RetryAfter))
				default:
					errs[id] = fmt.Errorf("connection %d: %w", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	fmt.Printf("client: %d connections committed %d/%d programs in %v (%d overload retries)\n",
		clients, committed.Load(), clients*ops, time.Since(start).Round(time.Millisecond), retries.Load())
	st, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	fmt.Printf("client: server stats: submitted=%d completed=%d commits=%d aborts=%d (%.1f%%)\n",
		st.Submitted, st.Completed, st.Commits, st.Aborts, 100*st.AbortRate())
	return nil
}
