package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"strings"

	"livetm/internal/monitor"
)

// ArtifactSchema versions the loadgen artifact. Bump on breaking
// field changes; CI validates it. v2 dropped v1's singular "fault" and
// "fault_result" phase keys, which duplicated the first entry of
// "faults" and "fault_results".
const ArtifactSchema = "livetm/loadgen/v2"

// Artifact is one run's provenance-stamped result: enough to gate a
// release on it (Evaluate) and to reproduce it (scenario hash + seed
// + plan digest).
type Artifact struct {
	Schema       string `json:"schema"`
	Scenario     string `json:"scenario"`
	ScenarioHash string `json:"scenario_hash,omitempty"`
	Seed         uint64 `json:"seed"`
	// PlanDigest is the sha256 of the materialized schedule — the
	// determinism witness: same scenario + seed, same digest.
	PlanDigest      string `json:"plan_digest"`
	PlannedArrivals int    `json:"planned_arrivals"`
	GitDescribe     string `json:"git_describe,omitempty"`
	StartedAt       string `json:"started_at,omitempty"`
	Target          string `json:"target"`
	Workers         int    `json:"workers"`
	Vars            int    `json:"vars"`

	Phases []PhaseResult `json:"phases"`

	// LivenessClass and Checked come from the final monitor report
	// (AttachReport) when the run ends in a drain or close.
	LivenessClass string `json:"liveness_class,omitempty"`
	Checked       bool   `json:"checked,omitempty"`
	// CheckedThroughput is committed transactions per second across
	// the whole run, counted only when the monitor verified the run
	// (Checked): throughput that comes with a verdict.
	CheckedThroughput float64 `json:"checked_throughput,omitempty"`

	// Gates embeds the scenario's thresholds so `livetm loadgen gate`
	// needs only the artifact.
	Gates *Gates `json:"gates,omitempty"`
}

// PhaseResult is one phase's measured outcome.
type PhaseResult struct {
	Name string `json:"name"`
	// Faults is the phase's layered fault list in injection order.
	Faults     []string `json:"faults,omitempty"`
	DurationMS int64    `json:"duration_ms"`
	// Planned is deterministic (from the plan); the rest is measured.
	Planned    int    `json:"planned"`
	Dispatched uint64 `json:"dispatched"`
	Committed  uint64 `json:"committed"`
	NoCommits  uint64 `json:"nocommits,omitempty"`
	// Refusals counts overload refusals (each attempt), Retries the
	// re-submissions after one, Dropped the arrivals that exhausted
	// their retry budget, Shed the arrivals never dispatched because
	// the outstanding cap was full.
	Refusals uint64 `json:"refusals,omitempty"`
	Retries  uint64 `json:"retries,omitempty"`
	Dropped  uint64 `json:"dropped,omitempty"`
	Shed     uint64 `json:"shed,omitempty"`
	Errors   uint64 `json:"errors,omitempty"`

	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	// ThroughputPerSec is committed arrivals over the phase duration.
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	// AbortRate is the target's abort rate measured over the phase
	// (attempt-level: server-side stats delta, so it includes retries
	// inside the TM's own retry loop).
	AbortRate float64 `json:"abort_rate"`
	// RefusalRate is refusals / (dispatched + retries + refusals of
	// shed-free attempts): the fraction of submission attempts the
	// admission layer turned away.
	RefusalRate float64 `json:"refusal_rate"`

	// FaultResults has one entry per fault, in Faults order.
	FaultResults []*FaultResult `json:"fault_results,omitempty"`
	FirstError   string         `json:"first_error,omitempty"`
}

// FaultResult summarizes the inject phase's adversary runs.
type FaultResult struct {
	Strategy string `json:"strategy"`
	// Runs is completed adversary episodes; Rounds sums p2 commits
	// across them; Violations counts episodes consistent with a
	// local-progress violation (p1 never committed).
	Runs       int    `json:"runs"`
	Rounds     int    `json:"rounds"`
	Violations int    `json:"violations"`
	Error      string `json:"error,omitempty"`
}

// AttachReport folds the final monitor report into the artifact:
// liveness class, checked flag, and checked-throughput.
func (a *Artifact) AttachReport(rep *monitor.Report) {
	if rep == nil {
		return
	}
	a.LivenessClass = rep.LivenessClass()
	a.Checked = rep.Checked
	if !rep.Checked {
		return
	}
	var committed uint64
	var totalMS int64
	for _, p := range a.Phases {
		committed += p.Committed
		totalMS += p.DurationMS
	}
	if totalMS > 0 {
		a.CheckedThroughput = float64(committed) / (float64(totalMS) / 1000)
	}
}

// Write renders the artifact as indented JSON at path.
func (a *Artifact) Write(path string) error {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadArtifact reads an artifact back (the gate subcommand's input).
func LoadArtifact(path string) (*Artifact, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, fmt.Errorf("loadgen: parse artifact %s: %w", path, err)
	}
	if a.Schema != ArtifactSchema {
		return nil, fmt.Errorf("loadgen: artifact %s has schema %q, want %q", path, a.Schema, ArtifactSchema)
	}
	return &a, nil
}

// GitDescribe stamps provenance with the build of the running binary:
// its VCS revision, shortened to 12 hex digits, with "-dirty" when it
// was built from a modified tree. Only a binary that carries no VCS
// stamp (go test and go run build none) falls back to `git describe`
// in the working directory, and outside a checkout to "unknown".
func GitDescribe() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		if stamp, ok := buildStamp(info.Settings); ok {
			return stamp
		}
	}
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// buildStamp is GitDescribe's reading of a binary's build settings;
// false when they hold no vcs.revision.
func buildStamp(settings []debug.BuildSetting) (string, bool) {
	var rev, dirty string
	for _, s := range settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value[:min(len(s.Value), 12)]
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "-dirty"
		}
	}
	return rev + dirty, rev != ""
}
