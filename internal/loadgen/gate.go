package loadgen

import (
	"fmt"

	"livetm/internal/monitor"
)

// Gates are a scenario's release thresholds: the four-gate
// methodology (latency, abort rate, overload refusals, throughput)
// plus the liveness lattice. A zero/empty field leaves that gate
// unevaluated, so development scenarios can start with a loose subset
// and tighten toward GA.
type Gates struct {
	// MaxP99MS bounds the worst phase p99 completion latency
	// (warmup excluded, as in all phase gates below).
	MaxP99MS float64 `json:"max_p99_ms,omitempty"`
	// MaxAbortRate bounds the worst phase attempt-level abort rate.
	MaxAbortRate float64 `json:"max_abort_rate,omitempty"`
	// MaxRefusalRate bounds the worst phase overload-refusal rate.
	MaxRefusalRate float64 `json:"max_refusal_rate,omitempty"`
	// MinThroughput floors the committed arrivals/sec across all
	// non-warmup phases.
	MinThroughput float64 `json:"min_throughput,omitempty"`
	// MinLiveness floors the run's liveness class on the lattice
	// (none < solo progress < global progress < 2-progress < local
	// progress). Requires a drained/closed run with a monitor report.
	MinLiveness string `json:"min_liveness,omitempty"`
}

// GateResult is one gate's verdict.
type GateResult struct {
	Gate   string `json:"gate"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// steadyPhases filters out warmup: gates judge the phases that are
// supposed to be representative, including inject and recovery.
func steadyPhases(a *Artifact) []PhaseResult {
	var out []PhaseResult
	for _, p := range a.Phases {
		if p.Name == "warmup" {
			continue
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return a.Phases
	}
	return out
}

// Evaluate judges the artifact against the gates. Every evaluated gate
// reports; the run passes when all do.
func Evaluate(a *Artifact, g Gates) []GateResult {
	var out []GateResult
	phases := steadyPhases(a)

	if g.MaxP99MS > 0 {
		worst, at := 0.0, ""
		for _, p := range phases {
			if p.P99MS >= worst {
				worst, at = p.P99MS, p.Name
			}
		}
		out = append(out, GateResult{
			Gate: "p99_latency", Pass: worst <= g.MaxP99MS,
			Detail: fmt.Sprintf("worst p99 %.2fms (phase %s), max %.2fms", worst, at, g.MaxP99MS),
		})
	}
	if g.MaxAbortRate > 0 {
		worst, at := 0.0, ""
		for _, p := range phases {
			if p.AbortRate >= worst {
				worst, at = p.AbortRate, p.Name
			}
		}
		out = append(out, GateResult{
			Gate: "abort_rate", Pass: worst <= g.MaxAbortRate,
			Detail: fmt.Sprintf("worst abort rate %.3f (phase %s), max %.3f", worst, at, g.MaxAbortRate),
		})
	}
	if g.MaxRefusalRate > 0 {
		worst, at := 0.0, ""
		for _, p := range phases {
			if p.RefusalRate >= worst {
				worst, at = p.RefusalRate, p.Name
			}
		}
		out = append(out, GateResult{
			Gate: "refusal_rate", Pass: worst <= g.MaxRefusalRate,
			Detail: fmt.Sprintf("worst refusal rate %.3f (phase %s), max %.3f", worst, at, g.MaxRefusalRate),
		})
	}
	if g.MinThroughput > 0 {
		throughput := steadyThroughput(phases)
		out = append(out, GateResult{
			Gate: "throughput", Pass: throughput >= g.MinThroughput,
			Detail: fmt.Sprintf("%.1f committed/sec, min %g", throughput, g.MinThroughput),
		})
	}
	if g.MinLiveness != "" {
		got := a.LivenessClass
		pass := got != "" && monitor.LivenessRank(got) >= monitor.LivenessRank(g.MinLiveness)
		detail := fmt.Sprintf("class %q, min %q", got, g.MinLiveness)
		if got == "" {
			detail = fmt.Sprintf("no monitor report in artifact (run with -drain), min %q", g.MinLiveness)
		}
		out = append(out, GateResult{Gate: "liveness", Pass: pass, Detail: detail})
	}
	return out
}

// steadyThroughput is committed arrivals/sec across the phases.
func steadyThroughput(phases []PhaseResult) float64 {
	var committed uint64
	var ms int64
	for _, p := range phases {
		committed += p.Committed
		ms += p.DurationMS
	}
	if ms == 0 {
		return 0
	}
	return float64(committed) / (float64(ms) / 1000)
}
