package loadgen

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"livetm/internal/adversary"
	"livetm/internal/client"
	"livetm/internal/engine"
	"livetm/internal/telemetry"
)

// Options tunes a Run beyond what the scenario declares.
type Options struct {
	// ClientPrefix prefixes the rotating client identities
	// ("<prefix>-<i>"). Empty defaults to "loadgen".
	ClientPrefix string
	// Registry, when set, receives live per-phase instruments
	// (livetm_loadgen_* counters and latency histograms) so a /metrics
	// scrape can watch the run.
	Registry *telemetry.Registry
}

// The inject phases run short adversary episodes, so that one episode
// never outlives its phase by much.
const (
	faultRounds       = 4
	faultBlockTimeout = 200 * time.Millisecond
)

// phaseAgg accumulates one phase's counters while arrivals complete
// concurrently. Bare telemetry instruments double as plain atomics
// when no registry is attached (the server's convention).
type phaseAgg struct {
	dispatched *telemetry.Counter
	committed  *telemetry.Counter
	nocommits  *telemetry.Counter
	refusals   *telemetry.Counter
	retries    *telemetry.Counter
	dropped    *telemetry.Counter
	shed       *telemetry.Counter
	errs       *telemetry.Counter
	latency    *telemetry.Histogram

	firstErr atomic.Value // string

	statsIn  engine.SessionStats // target stats entering the phase
	statsOut engine.SessionStats // and leaving it
	faults   []*FaultResult      // one per layered fault, phase order
}

// newPhaseAgg resolves the phase-scoped instruments. The phase label
// is "<index>/<name>" from the validated scenario file: one registry
// serves one run, so the label space is exactly the scenario's phase
// list — finite per process, just not provable from the call graph,
// hence the telemetrylabel allowance.
//
//lint:allow(telemetrylabel) phase label space is the validated scenario's phase list, finite per run/registry
func newPhaseAgg(reg *telemetry.Registry, phase string) *phaseAgg {
	return &phaseAgg{
		dispatched: reg.Counter("livetm_loadgen_dispatched_total", "Arrivals dispatched per phase", "phase", phase),
		committed:  reg.Counter("livetm_loadgen_committed_total", "Arrivals committed per phase", "phase", phase),
		nocommits:  reg.Counter("livetm_loadgen_nocommits_total", "Arrivals declined per phase", "phase", phase),
		refusals:   reg.Counter("livetm_loadgen_refusals_total", "Overload refusals per phase", "phase", phase),
		retries:    reg.Counter("livetm_loadgen_retries_total", "Overload retries per phase", "phase", phase),
		dropped:    reg.Counter("livetm_loadgen_dropped_total", "Arrivals dropped after exhausting retries per phase", "phase", phase),
		shed:       reg.Counter("livetm_loadgen_shed_total", "Arrivals shed at the outstanding cap per phase", "phase", phase),
		errs:       reg.Counter("livetm_loadgen_errors_total", "Arrivals failed per phase", "phase", phase),
		latency:    reg.Histogram("livetm_loadgen_latency_ns", "Arrival completion latency per phase", "phase", phase),
	}
}

// Run drives the scenario's plan against the target and returns the
// measured artifact (liveness fields unset — AttachReport folds in a
// drain/close report when the caller has one). The scheduler is
// open-loop: arrivals fire at their planned offsets regardless of
// completions, up to the scenario's outstanding cap, past which
// arrivals are shed and counted rather than queued.
func Run(ctx context.Context, tgt Target, sc *Scenario, scenarioHash string, opts Options) (*Artifact, error) {
	plan, err := sc.Plan()
	if err != nil {
		return nil, err
	}
	// Capability checks before any traffic: a scenario that ramps
	// needs a worker-adding target, faults need a fault driver.
	var adder WorkerAdder
	if len(sc.Ramp) > 0 {
		var ok bool
		if adder, ok = tgt.(WorkerAdder); !ok {
			return nil, fmt.Errorf("loadgen: scenario %s ramps workers, but target %s cannot (ramp is in-process only)", sc.Name, tgt.Describe())
		}
	}
	var faulter FaultDriver
	for _, ph := range sc.Phases {
		if len(ph.Faults) == 0 {
			continue
		}
		var ok bool
		if faulter, ok = tgt.(FaultDriver); !ok {
			return nil, fmt.Errorf("loadgen: scenario %s injects faults, but target %s cannot (faults are wire-only)", sc.Name, tgt.Describe())
		}
		break
	}

	prefix := opts.ClientPrefix
	if prefix == "" {
		prefix = "loadgen"
	}
	fcfg := adversary.Config{Rounds: faultRounds, BlockTimeout: faultBlockTimeout}

	cells := make([]cell, len(sc.Mix))
	for i, m := range sc.Mix {
		cells[i], _ = parseCell(m.Cell) // validated by Plan
	}
	aggs := make([]*phaseAgg, len(sc.Phases))
	for i, ph := range sc.Phases {
		aggs[i] = newPhaseAgg(opts.Registry, strconv.Itoa(i)+"/"+ph.Name)
	}

	workers, vars := tgt.Workers(), tgt.Vars()
	retryBudget := sc.retryBudget()
	sem := make(chan struct{}, sc.outstandingCap())
	var wg sync.WaitGroup

	dispatch := func(ev Event, agg *phaseAgg) {
		select {
		case sem <- struct{}{}:
		default:
			agg.shed.Inc()
			return
		}
		agg.dispatched.Inc()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			name := prefix + "-" + strconv.Itoa(ev.Client)
			ops := cells[ev.Cell].ops(ev.Client, ev.Seq, workers, vars)
			var backoff client.Backoff
			t0 := time.Now()
			for attempt := 0; ; attempt++ {
				committed, err := tgt.Exec(ctx, name, ops)
				if err == nil {
					agg.latency.Observe(int64(time.Since(t0)))
					if committed {
						agg.committed.Inc()
					} else {
						agg.nocommits.Inc()
					}
					return
				}
				if errors.Is(err, engine.ErrOverloaded) {
					agg.refusals.Inc()
					if attempt >= retryBudget {
						agg.dropped.Inc()
						return
					}
					var we *client.Error
					hint := time.Duration(0)
					if errors.As(err, &we) {
						hint = we.RetryAfter
					}
					select {
					case <-time.After(backoff.Next(hint)):
					case <-ctx.Done():
						agg.errs.Inc()
						return
					}
					agg.retries.Inc()
					continue
				}
				agg.errs.Inc()
				agg.firstErr.CompareAndSwap(nil, err.Error())
				return
			}
		}()
	}

	// Fault injection runs as episodes in phase-scoped goroutines, one
	// per layered fault so a crash variant and a parasitic one really
	// overlap; stop asks each loop to finish its current episode and
	// waits for all of them.
	var faultStop chan struct{}
	var faultWG sync.WaitGroup
	startFaults := func(pi int) {
		faultStop = make(chan struct{})
		for _, name := range sc.Phases[pi].Faults {
			strat, _ := FaultStrategy(name) // validated
			fr := &FaultResult{Strategy: strat.Name()}
			aggs[pi].faults = append(aggs[pi].faults, fr)
			stop := faultStop
			faultWG.Add(1)
			go func() {
				defer faultWG.Done()
				for {
					select {
					case <-stop:
						return
					case <-ctx.Done():
						return
					default:
					}
					out, err := faulter.Fault(strat, fcfg)
					if err != nil {
						fr.Error = err.Error()
						return
					}
					fr.Runs++
					fr.Rounds += out.Rounds
					if out.LocalProgressViolated() {
						fr.Violations++
					}
				}
			}()
		}
	}
	stopFault := func() {
		if faultStop == nil {
			return
		}
		close(faultStop)
		faultWG.Wait()
		faultStop = nil
	}

	art := &Artifact{
		Schema:       ArtifactSchema,
		Scenario:     sc.Name,
		ScenarioHash: scenarioHash,
		Seed:         sc.Seed,
		GitDescribe:  GitDescribe(),
		StartedAt:    time.Now().UTC().Format(time.RFC3339),
		Target:       tgt.Describe(),
		Workers:      workers,
		Vars:         vars,
		Gates:        sc.Gates,
	}
	if art.PlanDigest, err = plan.Digest(); err != nil {
		return nil, err
	}
	for _, n := range plan.PlannedByPhase {
		art.PlannedArrivals += n
	}

	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	cur := -1
	enter := func(pi int) error {
		stopFault()
		if cur >= 0 {
			st, err := tgt.Stats(ctx)
			if err != nil {
				return fmt.Errorf("loadgen: stats at phase boundary: %w", err)
			}
			aggs[cur].statsOut = st
			if pi >= 0 {
				aggs[pi].statsIn = st
			}
		} else if pi >= 0 {
			st, err := tgt.Stats(ctx)
			if err != nil {
				return fmt.Errorf("loadgen: stats at start: %w", err)
			}
			aggs[pi].statsIn = st
		}
		cur = pi
		if pi >= 0 && len(sc.Phases[pi].Faults) > 0 {
			startFaults(pi)
		}
		return nil
	}

	for _, ev := range plan.Events {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				stopFault()
				return nil, ctx.Err()
			}
		}
		switch ev.Kind {
		case EvPhase:
			if err := enter(ev.Phase); err != nil {
				stopFault()
				return nil, err
			}
		case EvRamp:
			// The pool grows, but op generation keeps the run-start
			// worker count: the programs stay a pure function of the
			// plan no matter when the ramp lands.
			if err := adder.AddWorkers(ev.AddWorkers); err != nil {
				aggs[ev.Phase].errs.Inc()
				aggs[ev.Phase].firstErr.CompareAndSwap(nil, "ramp: "+err.Error())
			}
		case EvArrival:
			dispatch(ev, aggs[ev.Phase])
		}
	}
	// Run out the final phase's clock, then let stragglers finish
	// (bounded by the context) before the closing stats snapshot.
	if d := time.Until(start.Add(plan.Total)); d > 0 {
		timer.Reset(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
		}
	}
	stopFault()
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
	case <-ctx.Done():
	}
	if err := enter(-1); err != nil {
		return nil, err
	}

	for i, ph := range sc.Phases {
		agg := aggs[i]
		durMS := time.Duration(ph.Duration).Milliseconds()
		pr := PhaseResult{
			Name:         ph.Name,
			Faults:       ph.Faults,
			DurationMS:   durMS,
			Planned:      plan.PlannedByPhase[i],
			Dispatched:   agg.dispatched.Load(),
			Committed:    agg.committed.Load(),
			NoCommits:    agg.nocommits.Load(),
			Refusals:     agg.refusals.Load(),
			Retries:      agg.retries.Load(),
			Dropped:      agg.dropped.Load(),
			Shed:         agg.shed.Load(),
			Errors:       agg.errs.Load(),
			P50MS:        float64(agg.latency.Quantile(0.50)) / 1e6,
			P95MS:        float64(agg.latency.Quantile(0.95)) / 1e6,
			P99MS:        float64(agg.latency.Quantile(0.99)) / 1e6,
			FaultResults: agg.faults,
		}
		if durMS > 0 {
			pr.ThroughputPerSec = float64(pr.Committed) / (float64(durMS) / 1000)
		}
		commits := agg.statsOut.Commits - agg.statsIn.Commits
		aborts := agg.statsOut.Aborts - agg.statsIn.Aborts
		if commits+aborts > 0 {
			pr.AbortRate = float64(aborts) / float64(commits+aborts)
		}
		// Every dispatch is one attempt and every retry one more;
		// each attempt either completes, errors, or is refused.
		if attempts := pr.Dispatched + pr.Retries; attempts > 0 {
			pr.RefusalRate = float64(pr.Refusals) / float64(attempts)
		}
		if fe, ok := agg.firstErr.Load().(string); ok {
			pr.FirstError = fe
		}
		art.Phases = append(art.Phases, pr)
	}
	return art, nil
}
