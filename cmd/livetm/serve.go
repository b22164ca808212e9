package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"livetm/internal/engine"
	"livetm/internal/monitor"
	"livetm/internal/server"
	"livetm/internal/telemetry"
)

func setupServe(fs *flag.FlagSet) func() error {
	lookup := cellFlags(fs, "native engine to serve (see `livetm engines`)", "workers", 4, "worker pool size (the session's process count)")
	submitters := fs.Int("submitters", 8, "concurrent client goroutines submitting transactions")
	live := fs.Bool("live", true, "keep the in-process monitor resident (mid-flight violation stop + starvation-aware backoff)")
	duration := fs.Duration("duration", 0, "stop after this long (0 = serve until SIGINT/SIGTERM)")
	progress := fs.Duration("progress", 2*time.Second, "progress line interval")
	listen := fs.String("listen", "", "serve the wire API v1 on this address (livetm client / internal/client); telemetry rides the same listener at /metrics. Defaults -submitters to 0 unless set explicitly")
	maxInflight := fs.Int("max-inflight", 256, "wire admission cap: total submissions in flight across all clients, shared fairly (0 = unbounded; -listen only)")
	retryAfter := fs.Duration("retry-after", 50*time.Millisecond, "backoff hint attached to wire overload refusals (-listen only)")
	metricsAddr := fs.String("metrics", "", "serve live telemetry on this address: Prometheus text at /metrics, JSON at /snapshot, pprof at /debug/pprof/ (empty = no endpoint)")
	flight := fs.String("flight", "", "flight recorder: append a JSONL registry snapshot to this file every -flight-every (empty = off)")
	flightEvery := fs.Duration("flight-every", time.Second, "flight-recorder snapshot interval")
	return func() error {
		if *flightEvery <= 0 {
			return fmt.Errorf("serve: -flight-every must be positive, got %v", *flightEvery)
		}
		if *progress <= 0 {
			return fmt.Errorf("serve: -progress must be positive, got %v", *progress)
		}
		if *listen == "" {
			if wireOnly := setFlags(fs, "max-inflight", "retry-after"); len(wireOnly) > 0 {
				return fmt.Errorf("serve: %s only applies with -listen (wire admission control)", strings.Join(wireOnly, ", "))
			}
		} else {
			// A wire service defaults to no local submitters: the load
			// comes from the network.
			if setFlags(fs, "submitters") == nil {
				*submitters = 0
			}
		}
		e, spec, err := lookup()
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		// The soak service always registers its instruments: the progress
		// lines read the registry, and the overhead budget the root
		// BenchmarkTelemetryOverhead enforces keeps it cheap either way.
		reg := telemetry.NewRegistry()
		s, err := engine.Open(engine.SessionConfig{
			Engine:    e.Name(),
			Workers:   spec.Procs,
			Vars:      spec.Vars,
			Live:      *live,
			Telemetry: reg,
		})
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		var wsrv *server.Server
		var remoteDrained <-chan struct{}
		if *listen != "" {
			wsrv = server.New(s, server.Config{
				MaxInflight: *maxInflight,
				RetryAfter:  *retryAfter,
				Registry:    reg,
				Info: server.InfoResponse{
					Engine: s.Name(), Workers: spec.Procs, Vars: spec.Vars, Live: *live,
				},
			})
			remoteDrained = wsrv.Done()
			addr, stop, err := listenHTTP(*listen, wsrv.Handler())
			if err != nil {
				_, _ = s.Close()
				return fmt.Errorf("serve: -listen: %w", err)
			}
			defer stop()
			fmt.Printf("serve: wire API v1 on http://%s/v1/ (max-inflight=%d, telemetry at /metrics)\n", addr, *maxInflight)
		}
		if *metricsAddr != "" {
			addr, stop, err := listenHTTP(*metricsAddr, telemetry.Handler(reg))
			if err != nil {
				_, _ = s.Close()
				return fmt.Errorf("serve: -metrics: %w", err)
			}
			defer stop()
			fmt.Printf("serve: telemetry on http://%s/metrics (JSON at /snapshot, pprof at /debug/pprof/)\n", addr)
		}
		if *flight != "" {
			f, err := os.OpenFile(*flight, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				_, _ = s.Close()
				return fmt.Errorf("serve: -flight: %w", err)
			}
			fr := telemetry.NewFlightRecorder(reg, f, *flightEvery)
			fr.Start()
			defer func() { fr.Stop(); f.Close() }()
			fmt.Printf("serve: flight recorder appending to %s every %v\n", *flight, *flightEvery)
		}
		fmt.Printf("serve: %s serving %s with %d workers, %d submitters (live=%v)\n",
			s.Name(), spec.Name, spec.Procs, *submitters, *live)

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
		go func() {
			var timeout <-chan time.Time
			if *duration > 0 {
				timeout = time.After(*duration)
			}
			select {
			case sig := <-sigc:
				fmt.Printf("serve: caught %v — draining\n", sig)
			case <-timeout:
				fmt.Printf("serve: duration %v elapsed — draining\n", *duration)
			case <-ctx.Done():
			}
			cancel()
		}()

		body := spec.Body()
		errc := make(chan error, *submitters)
		var wg sync.WaitGroup
		for id := range *submitters {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The workload body's variable choice is a function of its
				// process index, so the submission is pinned to the worker
				// with that identity: submitters sharing a worker serialize
				// on its lane, and a disjoint cell stays disjoint.
				proc := id % spec.Procs
				for round := 0; ctx.Err() == nil; round++ {
					err := s.ExecOn(ctx, proc, func(tx engine.Tx) error { return body(proc, round, tx) })
					switch {
					case err == nil, errors.Is(err, engine.ErrNoCommit):
					case errors.Is(err, context.Canceled):
						return
					default:
						errc <- err
						cancel()
						return
					}
				}
			}()
		}
		// Local submitters observe the cancellation themselves, and the
		// loop ends on their clean exit. Without them the load is remote,
		// so the signal handler (via ctx) or a remote drain ends it.
		stopped := ctx.Done()
		if *submitters > 0 {
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			stopped = done
		}

		start := time.Now()
		tick := time.NewTicker(*progress)
		defer tick.Stop()
	serving:
		for {
			select {
			case <-tick.C:
				st := s.Stats()
				fmt.Printf("serve: t=%-8s workers=%d submitted=%d completed=%d commits=%d aborts=%d (%.1f%%)%s bias=%v\n",
					time.Since(start).Round(time.Second), st.Workers, st.Submitted, st.Completed,
					st.Commits, st.Aborts, 100*st.AbortRate(), progressSummary(reg.Snapshot()), st.BackoffBias)
			case <-stopped:
				break serving
			case <-remoteDrained:
				fmt.Println("serve: drained remotely (POST /v1/drain)")
				break serving
			}
		}

		var (
			rep  *monitor.Report
			st   engine.SessionStats
			cerr error
		)
		if wsrv != nil {
			// Drain through the wire server so parked interactive
			// transactions are abandoned before the session closes; a remote
			// drain already ran this and the call just returns its outcome.
			dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
			res, derr := wsrv.Drain(dctx)
			dcancel()
			rep, st, cerr = res.Report, res.Stats, derr
		} else {
			rep, cerr = s.Close()
			st = s.Stats()
		}
		fmt.Printf("serve: final report after %s: commits=%d aborts=%d (%.1f%%) no-commits=%d over %d workers\n",
			time.Since(start).Round(time.Millisecond), st.Commits, st.Aborts, 100*st.AbortRate(), st.NoCommits, st.Workers)
		printReport(rep)
		if cerr != nil {
			return fmt.Errorf("serve: %w", cerr)
		}
		select {
		case err := <-errc:
			return fmt.Errorf("serve: submitter failed: %w", err)
		default:
		}
		return nil
	}
}

// listenHTTP serves h on addr. Its stop shuts the listener down
// gracefully: handlers still running finish and write their replies
// (the one to a remote POST /v1/drain, which closes the server's Done
// before it answers, above all), and only connections still busy after
// a deadline are cut.
func listenHTTP(addr string, h http.Handler) (net.Addr, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			_ = srv.Close()
		}
	}, nil
}

// progressSummary renders the retry loop's abort-cause breakdown
// (" causes=conflict:N,operation:M,...", non-zero causes only) and the
// streaming checker's backlog (" lag=N") from a registry snapshot; a
// part with nothing to report is left out.
func progressSummary(snap telemetry.Snapshot) string {
	var b strings.Builder
	sep := " causes="
	for _, cause := range []string{"conflict", "operation", "abandoned", "stopped"} {
		if v, ok := snap.Value("livetm_tx_aborts_total", "cause", cause); ok && v > 0 {
			fmt.Fprintf(&b, "%s%s:%.0f", sep, cause, v)
			sep = ","
		}
	}
	if v, ok := snap.Value("livetm_checker_lane_lag"); ok {
		fmt.Fprintf(&b, " lag=%.0f", v)
	}
	return b.String()
}
