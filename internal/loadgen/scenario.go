package loadgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"livetm/internal/adversary"
	"livetm/internal/workload"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("250ms", "1.5s"), keeping scenario files readable.
type Duration time.Duration

// MarshalJSON renders the duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or a bare number of
// nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("duration must be a string like %q or nanoseconds", "250ms")
	}
	*d = Duration(n)
	return nil
}

// Scenario is one declarative open-loop load description: what
// arrives, how fast, shaped into which transactions, through which
// phases, against which release gates. See the package documentation
// for the full schema.
type Scenario struct {
	// Name identifies the scenario in artifacts and gate reports.
	Name string `json:"name"`
	// Seed pins the arrival schedule: same scenario + same seed is
	// byte-identical, which is what the determinism CI check asserts.
	Seed uint64 `json:"seed"`
	// Arrival is the base arrival process; each phase scales it.
	Arrival Arrival `json:"arrival"`
	// Mix is the weighted workload-cell mix each arrival draws from.
	Mix []MixEntry `json:"mix"`
	// Phases run back to back; the canonical shape is
	// warmup/inject/recovery. Gates skip phases named "warmup".
	Phases []Phase `json:"phases"`
	// Ramp grows the worker pool mid-run (in-process targets only).
	Ramp []RampStep `json:"ramp,omitempty"`
	// Clients is the number of distinct client identities the arrivals
	// rotate through (admission fairness and the eviction path are
	// exercised per identity). 0 defaults to 4.
	Clients int `json:"clients,omitempty"`
	// Retries is how many times one arrival retries an overload
	// refusal (with jittered backoff) before counting as dropped. 0
	// defaults to 3; negative means no retries.
	Retries int `json:"retries,omitempty"`
	// MaxOutstanding caps concurrently in-flight arrivals; past it an
	// arrival is shed (counted, not dispatched) — the open-loop driver
	// itself must not become an unbounded queue. 0 defaults to 1024.
	MaxOutstanding int `json:"max_outstanding,omitempty"`
	// Session configures the in-process target (ignored over the
	// wire, where the server owns the session).
	Session *SessionSpec `json:"session,omitempty"`
	// Gates are the scenario's release thresholds, embedded into the
	// artifact so `livetm loadgen gate` needs only the artifact.
	Gates *Gates `json:"gates,omitempty"`
}

// Arrival is the open-loop arrival process.
type Arrival struct {
	// Process is "poisson" (exponential inter-arrivals at Rate/sec) or
	// "bursty" (BurstSize simultaneous arrivals every BurstEvery).
	Process string `json:"process"`
	// Rate is the mean arrival rate per second (poisson; for bursty it
	// sizes the burst when BurstSize is 0).
	Rate float64 `json:"rate,omitempty"`
	// BurstSize arrivals fire at once every BurstEvery (bursty only).
	BurstSize int `json:"burst_size,omitempty"`
	// BurstEvery is the burst period (bursty only).
	BurstEvery Duration `json:"burst_every,omitempty"`
}

// MixEntry weights one workload-matrix cell in the arrival mix.
type MixEntry struct {
	// Cell names the cell as "mix/contention/sharing", e.g.
	// "update/hot/shared" — the workload matrix's axes minus the
	// process count, which the target's worker pool supplies.
	Cell string `json:"cell"`
	// Weight is the cell's relative draw weight (> 0).
	Weight float64 `json:"weight"`
}

// Phase is one run phase. Phases execute in order.
type Phase struct {
	Name     string   `json:"name"`
	Duration Duration `json:"duration"`
	// RateScale multiplies the base arrival rate (and burst size) for
	// this phase. 0 means 1.
	RateScale float64 `json:"rate_scale,omitempty"`
	// Faults names adversary strategies ("alg1", "alg1-crash", "alg2",
	// "alg2-parasitic"), each run repeatedly as a fault injector in its
	// own concurrent episode loop for the phase's duration (wire
	// targets only). Several layer in one phase — e.g. a crash variant
	// riding alongside a parasitic one, the compound failure mode a
	// single injector cannot produce; duplicate names are rejected.
	Faults []string `json:"faults,omitempty"`
}

// RampStep adds workers at an offset from run start.
type RampStep struct {
	At         Duration `json:"at"`
	AddWorkers int      `json:"add_workers"`
}

// SessionSpec opens the in-process target session.
type SessionSpec struct {
	Engine     string `json:"engine"`
	Workers    int    `json:"workers"`
	MaxWorkers int    `json:"max_workers,omitempty"`
	Vars       int    `json:"vars"`
	MaxQueue   int    `json:"max_queue,omitempty"`
	Live       bool   `json:"live,omitempty"`
}

// Load reads, hashes, parses and validates a scenario file. The hash
// (sha256 of the raw bytes) stamps the artifact's provenance. Parsing
// is strict: an unknown (misspelled, or no longer supported) key is an
// error, not a silently different run from the one the file describes.
func Load(path string) (*Scenario, string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(raw)
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, "", fmt.Errorf("loadgen: parse %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, "", fmt.Errorf("loadgen: parse %s: trailing data after the scenario object", path)
	}
	if err := sc.Validate(); err != nil {
		return nil, "", fmt.Errorf("loadgen: %s: %w", path, err)
	}
	return &sc, hex.EncodeToString(sum[:]), nil
}

// Validate checks the scenario's internal consistency and fills
// nothing in — defaults resolve at plan/run time so the file's hash
// stays the source of truth.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario needs a name")
	}
	switch s.Arrival.Process {
	case "poisson":
		if s.Arrival.Rate <= 0 {
			return fmt.Errorf("poisson arrival needs rate > 0")
		}
	case "bursty":
		if s.Arrival.BurstEvery <= 0 {
			return fmt.Errorf("bursty arrival needs burst_every > 0")
		}
		if s.Arrival.BurstSize <= 0 && s.Arrival.Rate <= 0 {
			return fmt.Errorf("bursty arrival needs burst_size or rate")
		}
	default:
		return fmt.Errorf("arrival process %q (want poisson or bursty)", s.Arrival.Process)
	}
	if len(s.Mix) == 0 {
		return fmt.Errorf("scenario needs at least one mix entry")
	}
	for _, m := range s.Mix {
		if m.Weight <= 0 {
			return fmt.Errorf("mix cell %q needs weight > 0", m.Cell)
		}
		if _, err := parseCell(m.Cell); err != nil {
			return err
		}
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario needs at least one phase")
	}
	total := time.Duration(0)
	for i, p := range s.Phases {
		if p.Name == "" {
			return fmt.Errorf("phase %d needs a name", i)
		}
		if p.Duration <= 0 {
			return fmt.Errorf("phase %q needs duration > 0", p.Name)
		}
		seen := map[string]bool{}
		for _, name := range p.Faults {
			if seen[name] {
				return fmt.Errorf("phase %q lists fault %q more than once", p.Name, name)
			}
			seen[name] = true
			if _, err := FaultStrategy(name); err != nil {
				return err
			}
		}
		if time.Duration(p.Duration) > math.MaxInt64-total {
			return fmt.Errorf("phase %q runs past the longest duration there is", p.Name)
		}
		total += time.Duration(p.Duration)
		if rate := s.Arrival.Rate * p.scale(); s.Arrival.Process == "poisson" && rate > 1e9 {
			return fmt.Errorf("phase %q: poisson rate %g/s, over one arrival per nanosecond", p.Name, rate)
		}
	}
	if n := s.arrivals(); n > maxArrivals {
		return fmt.Errorf("scenario plans about %.3g arrivals, over the %d a plan holds", n, maxArrivals)
	}
	for _, r := range s.Ramp {
		if r.AddWorkers <= 0 {
			return fmt.Errorf("ramp step at %v needs add_workers > 0", time.Duration(r.At))
		}
		if time.Duration(r.At) < 0 || time.Duration(r.At) >= total {
			return fmt.Errorf("ramp step at %v outside the run [0, %v)", time.Duration(r.At), total)
		}
	}
	return nil
}

// maxArrivals bounds the arrivals one scenario plans: Plan holds them
// all in memory at once, at 64 bytes each before the run adds its own.
const maxArrivals = 1 << 22

// arrivals is how many arrivals the scenario plans: exactly for a
// bursty process, on average for a poisson one.
func (s *Scenario) arrivals() float64 {
	n := 0.0
	for _, p := range s.Phases {
		switch d := float64(p.Duration); s.Arrival.Process {
		case "poisson":
			n += s.Arrival.Rate * p.scale() * d / float64(time.Second)
		case "bursty":
			n += s.burst(p.scale()) * math.Ceil(d/float64(s.Arrival.BurstEvery))
		}
	}
	return n
}

// scale resolves the phase's rate multiplier.
func (p Phase) scale() float64 {
	if p.RateScale <= 0 {
		return 1
	}
	return p.RateScale
}

// burst is how many arrivals fire at once in a bursty phase at scale.
func (s *Scenario) burst(scale float64) float64 {
	size := float64(s.Arrival.BurstSize)
	if size <= 0 {
		size = math.Round(s.Arrival.Rate * time.Duration(s.Arrival.BurstEvery).Seconds())
	}
	return max(math.Round(size*scale), 1)
}

// FaultStrategy resolves a phase's fault name to the adversary
// strategy variant it injects.
func FaultStrategy(name string) (adversary.Strategy, error) {
	for _, s := range adversary.Variants() {
		if s.Name() == name {
			return s, nil
		}
	}
	return adversary.Strategy{}, fmt.Errorf("unknown fault %q (alg1, alg1-crash, alg2, alg2-parasitic)", name)
}

// cell is a resolved mix entry: one workload-matrix point minus the
// process count.
type cell struct {
	mix        workload.Mix
	contention workload.Contention
	sharing    workload.Sharing
}

// parseCell resolves "mix/contention/sharing" against the workload
// matrix's axes.
func parseCell(name string) (cell, error) {
	parts := strings.Split(name, "/")
	if len(parts) != 3 {
		return cell{}, fmt.Errorf("mix cell %q (want mix/contention/sharing, e.g. update/hot/shared)", name)
	}
	var c cell
	found := false
	for _, m := range workload.Mixes() {
		if m.Name == parts[0] {
			c.mix, found = m, true
		}
	}
	if !found {
		return cell{}, fmt.Errorf("mix cell %q: unknown mix %q", name, parts[0])
	}
	found = false
	for _, ct := range workload.Contentions() {
		if ct.Name == parts[1] {
			c.contention, found = ct, true
		}
	}
	if !found {
		return cell{}, fmt.Errorf("mix cell %q: unknown contention %q", name, parts[1])
	}
	switch workload.Sharing(parts[2]) {
	case workload.Shared:
		c.sharing = workload.Shared
	case workload.Disjoint:
		c.sharing = workload.Disjoint
	default:
		return cell{}, fmt.Errorf("mix cell %q: unknown sharing %q", name, parts[2])
	}
	return c, nil
}

// clientCount resolves the identity-rotation default.
func (s *Scenario) clientCount() int {
	if s.Clients > 0 {
		return s.Clients
	}
	return 4
}

// retryBudget resolves the per-arrival retry default.
func (s *Scenario) retryBudget() int {
	switch {
	case s.Retries > 0:
		return s.Retries
	case s.Retries < 0:
		return 0
	default:
		return 3
	}
}

// outstandingCap resolves the in-flight arrival cap.
func (s *Scenario) outstandingCap() int {
	if s.MaxOutstanding > 0 {
		return s.MaxOutstanding
	}
	return 1024
}
