package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"livetm/internal/client"
	"livetm/internal/engine"
	"livetm/internal/loadgen"
)

func setupLoadgen(fs *flag.FlagSet) func() error {
	scenarioFile := fs.String("scenario", "", "scenario JSON file (required; see internal/loadgen's package docs for the schema)")
	addr := fs.String("addr", "", "address of a served session (livetm serve -listen); empty opens the scenario's in-process session block")
	planOnly := fs.Bool("plan", false, "print the materialized arrival schedule (deterministic JSON) and exit without running")
	out := fs.String("out", "", "write the run artifact JSON to this file")
	drainFlag := fs.Bool("drain", false, "drain the wire target after the run so the artifact carries the final monitor report (in-process runs always close and fold it)")
	ident := fs.String("name", "loadgen", "client identity prefix; arrivals rotate through <name>-0..<clients-1>")
	gateFlag := fs.Bool("gate", false, "evaluate the scenario's gates against the artifact; non-zero exit on failure")
	return func() error {
		if *scenarioFile == "" {
			return fmt.Errorf("loadgen: -scenario is required")
		}
		sc, hash, err := loadgen.Load(*scenarioFile)
		if err != nil {
			return err
		}
		if *planOnly {
			plan, err := sc.Plan()
			if err != nil {
				return err
			}
			b, err := plan.Encode()
			if err != nil {
				return err
			}
			fmt.Println(string(b))
			return nil
		}

		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()

		var art *loadgen.Artifact
		if *addr != "" {
			c := client.New(client.Config{Addr: *addr, Name: *ident})
			tgt, err := loadgen.NewWireTarget(ctx, c)
			if err != nil {
				return err
			}
			fmt.Printf("loadgen: scenario %s (seed %d) against %s, %d workers, %d vars\n",
				sc.Name, sc.Seed, *addr, tgt.Workers(), tgt.Vars())
			if art, err = loadgen.Run(ctx, tgt, sc, hash, loadgen.Options{ClientPrefix: *ident}); err != nil {
				return err
			}
			if *drainFlag {
				dctx, cancel := context.WithTimeout(ctx, time.Minute)
				res, derr := c.Drain(dctx)
				cancel()
				if derr != nil {
					return fmt.Errorf("loadgen: drain: %w", derr)
				}
				art.AttachReport(res.Report)
			}
		} else if art, _, err = loadgenInProcess(ctx, sc, hash, *ident); err != nil {
			return err
		}

		for _, p := range art.Phases {
			line := fmt.Sprintf("loadgen: phase %-10s planned=%d dispatched=%d committed=%d p50=%.1fms p95=%.1fms p99=%.1fms abort=%.3f refusal=%.3f",
				p.Name, p.Planned, p.Dispatched, p.Committed, p.P50MS, p.P95MS, p.P99MS, p.AbortRate, p.RefusalRate)
			if p.Shed+p.Dropped+p.Errors > 0 {
				line += fmt.Sprintf(" shed=%d dropped=%d errors=%d", p.Shed, p.Dropped, p.Errors)
			}
			for _, fr := range p.FaultResults {
				line += fmt.Sprintf(" fault=%s runs=%d rounds=%d violations=%d",
					fr.Strategy, fr.Runs, fr.Rounds, fr.Violations)
			}
			fmt.Println(line)
		}
		if art.LivenessClass != "" {
			fmt.Printf("loadgen: liveness class: %s (checked=%v, checked-throughput=%.1f/s)\n",
				art.LivenessClass, art.Checked, art.CheckedThroughput)
		}
		if *out != "" {
			if err := art.Write(*out); err != nil {
				return fmt.Errorf("loadgen: write artifact: %w", err)
			}
			fmt.Printf("loadgen: artifact written to %s\n", *out)
		}
		if *gateFlag {
			if art.Gates == nil {
				return fmt.Errorf("loadgen: -gate set but scenario %s declares no gates", sc.Name)
			}
			return printGateVerdicts(loadgen.Evaluate(art, *art.Gates))
		}
		return nil
	}
}

// loadgenInProcess runs sc on the session its session block opens,
// closes the session and attaches its final monitor report to the
// artifact. It also returns the closed session's stats.
func loadgenInProcess(ctx context.Context, sc *loadgen.Scenario, hash, ident string) (*loadgen.Artifact, engine.SessionStats, error) {
	if sc.Session == nil {
		return nil, engine.SessionStats{}, fmt.Errorf("loadgen: scenario %s has no session block; give -addr or add one", sc.Name)
	}
	ses := sc.Session
	// A live session retains no history: the monitor consumes the event
	// stream, so each worker's recorder log stays one ring however long
	// the run.
	sess, err := engine.Open(engine.SessionConfig{
		Engine: ses.Engine, Workers: ses.Workers, MaxWorkers: ses.MaxWorkers,
		Vars: ses.Vars, MaxQueue: ses.MaxQueue, Live: ses.Live,
	})
	if err != nil {
		return nil, engine.SessionStats{}, fmt.Errorf("loadgen: open session: %w", err)
	}
	tgt := &loadgen.SessionTarget{S: sess, NVars: ses.Vars}
	fmt.Printf("loadgen: scenario %s (seed %d) in process on %s, %d workers, %d vars\n",
		sc.Name, sc.Seed, sess.Name(), tgt.Workers(), tgt.Vars())
	art, err := loadgen.Run(ctx, tgt, sc, hash, loadgen.Options{ClientPrefix: ident})
	rep, cerr := sess.Close()
	if err != nil {
		return nil, sess.Stats(), err
	}
	if cerr != nil {
		fmt.Printf("loadgen: session close: %v\n", cerr)
	}
	art.AttachReport(rep)
	return art, sess.Stats(), nil
}

func setupLoadgenGate(fs *flag.FlagSet) func() error {
	artifactFile := fs.String("artifact", "", "loadgen artifact JSON (required)")
	return func() error {
		if *artifactFile == "" {
			return fmt.Errorf("loadgen gate: -artifact is required")
		}
		art, err := loadgen.LoadArtifact(*artifactFile)
		if err != nil {
			return err
		}
		if art.Gates == nil {
			return fmt.Errorf("loadgen gate: artifact %s carries no gates", *artifactFile)
		}
		fmt.Printf("loadgen gate: %s (scenario %s, seed %d, %s)\n",
			*artifactFile, art.Scenario, art.Seed, art.GitDescribe)
		return printGateVerdicts(loadgen.Evaluate(art, *art.Gates))
	}
}

// printGateVerdicts prints one line per gate and errors if any
// failed (the subcommands' non-zero exit).
func printGateVerdicts(results []loadgen.GateResult) error {
	failed := 0
	for _, r := range results {
		verdict := "PASS"
		if !r.Pass {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("loadgen gate: %-4s %-16s %s\n", verdict, r.Gate, r.Detail)
	}
	if len(results) == 0 {
		return fmt.Errorf("loadgen gate: no gates evaluated")
	}
	if failed > 0 {
		return fmt.Errorf("loadgen gate: %d/%d gates failed", failed, len(results))
	}
	return nil
}
