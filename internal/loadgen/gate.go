package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
)

// Gates are a scenario's release thresholds: the four-gate
// methodology (latency, abort rate, overload refusals, throughput)
// plus the liveness lattice and the BENCH trajectory. A zero/empty
// field leaves that gate unevaluated, so development scenarios can
// start with a loose subset and tighten toward GA.
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
	// BenchCell names a BENCH_native.json trajectory cell
	// ("<engine> <workload>", e.g. "native-tl2 p4/update/hot/shared");
	// the run's throughput must reach BenchFraction of its
	// ops_per_sec. Wire and open-loop runs pay per-arrival round
	// trips the closed-loop bench does not, so fractions are small.
	BenchCell     string  `json:"bench_cell,omitempty"`
	BenchFraction float64 `json:"bench_fraction,omitempty"`
}

// GateResult is one gate's verdict.
type GateResult struct {
	Gate   string `json:"gate"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// livenessRank orders the lattice for MinLiveness comparisons.
func livenessRank(class string) int {
	switch class {
	case "local progress":
		return 4
	case "2-progress":
		return 3
	case "global progress":
		return 2
	case "solo progress":
		return 1
	default:
		return 0
	}
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

// Evaluate judges the artifact against the gates (and, when BenchCell
// is set and a BENCH artifact is supplied, the trajectory). Every
// evaluated gate reports; the run passes when all do.
func Evaluate(a *Artifact, g Gates, benchPath string) []GateResult {
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
	throughput := steadyThroughput(phases)
	if g.MinThroughput > 0 {
		out = append(out, GateResult{
			Gate: "throughput", Pass: throughput >= g.MinThroughput,
			Detail: fmt.Sprintf("%.1f committed/sec, min %.1f", throughput, g.MinThroughput),
		})
	}
	if g.MinLiveness != "" {
		got := a.LivenessClass
		pass := got != "" && livenessRank(got) >= livenessRank(g.MinLiveness)
		detail := fmt.Sprintf("class %q, min %q", got, g.MinLiveness)
		if got == "" {
			detail = fmt.Sprintf("no monitor report in artifact (run with -drain), min %q", g.MinLiveness)
		}
		out = append(out, GateResult{Gate: "liveness", Pass: pass, Detail: detail})
	}
	if g.BenchCell != "" {
		out = append(out, benchGate(a, g, benchPath, throughput))
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

// benchGate compares the run's throughput against the committed
// BENCH trajectory cell.
func benchGate(a *Artifact, g Gates, benchPath string, throughput float64) GateResult {
	frac := g.BenchFraction
	if frac <= 0 {
		frac = 0.01
	}
	if benchPath == "" {
		return GateResult{Gate: "bench_trajectory", Pass: false,
			Detail: fmt.Sprintf("gate names cell %q but no BENCH artifact supplied (-bench)", g.BenchCell)}
	}
	ops, err := benchCellOps(benchPath, g.BenchCell)
	if err != nil {
		return GateResult{Gate: "bench_trajectory", Pass: false, Detail: err.Error()}
	}
	floor := ops * frac
	return GateResult{
		Gate: "bench_trajectory", Pass: throughput >= floor,
		Detail: fmt.Sprintf("%.1f committed/sec vs %.1f (%.2f%% of %s at %.0f ops/sec)",
			throughput, floor, frac*100, g.BenchCell, ops),
	}
}

// benchCellOps pulls one cell's ops_per_sec out of a BENCH artifact.
// Decoding is structural (engine + workload + ops_per_sec), so the
// gate tolerates BENCH schema growth.
func benchCellOps(path, cellName string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("bench artifact: %v", err)
	}
	var bench struct {
		Results []struct {
			Engine    string  `json:"engine"`
			Workload  string  `json:"workload"`
			OpsPerSec float64 `json:"ops_per_sec"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return 0, fmt.Errorf("bench artifact %s: %v", path, err)
	}
	var engine, workload string
	if _, err := fmt.Sscanf(cellName, "%s %s", &engine, &workload); err != nil {
		return 0, fmt.Errorf("bench cell %q (want \"<engine> <workload>\")", cellName)
	}
	for _, r := range bench.Results {
		if r.Engine == engine && r.Workload == workload {
			if r.OpsPerSec <= 0 {
				return 0, fmt.Errorf("bench cell %q has no ops_per_sec", cellName)
			}
			return r.OpsPerSec, nil
		}
	}
	return 0, fmt.Errorf("bench cell %q not in %s", cellName, path)
}
