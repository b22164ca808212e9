package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"sort"
	"time"

	"livetm/internal/server"
	"livetm/internal/workload"
)

// rng is a splitmix64 stream: tiny, dependency-free, and — unlike the
// global math/rand — trivially pinned by the scenario seed, which is
// what makes the arrival schedule a pure function of the file.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential inter-arrival gap at rate events/sec,
// saturating at the longest duration there is.
func (r *rng) exp(rate float64) time.Duration {
	u := r.float()
	// 1-u is in (0, 1], so the log is finite.
	gap := -math.Log(1-u) / rate * float64(time.Second)
	if gap >= math.MaxInt64 {
		return math.MaxInt64
	}
	return time.Duration(gap)
}

// advance is t+d, or end if that is not before end.
func advance(t, d, end time.Duration) time.Duration {
	if d >= end-t {
		return end
	}
	return t + d
}

// Event kinds of a plan.
const (
	EvPhase   = "phase"
	EvArrival = "arrival"
	EvRamp    = "ramp"
)

// Event is one scheduled instant of a plan, ordered by At.
type Event struct {
	// At is the offset from run start, nanoseconds.
	At time.Duration `json:"at_ns"`
	// Kind is EvPhase, EvArrival or EvRamp.
	Kind string `json:"kind"`
	// Phase indexes Scenario.Phases (all kinds).
	Phase int `json:"phase"`
	// Seq numbers arrivals globally; it seeds the arrival's op
	// pattern, so replaying the plan replays the transactions too.
	Seq int `json:"seq,omitempty"`
	// Cell indexes Scenario.Mix (arrivals).
	Cell int `json:"cell,omitempty"`
	// Client indexes the rotating client identities (arrivals).
	Client int `json:"client,omitempty"`
	// AddWorkers is the ramp step's pool growth (ramps).
	AddWorkers int `json:"add_workers,omitempty"`
}

// Plan is the fully materialized, deterministic schedule of one
// scenario: every phase boundary, arrival, and ramp step with its
// offset, cell, and client identity decided up front. Two plans of
// the same scenario and seed are byte-identical (Encode), which CI
// asserts.
type Plan struct {
	Scenario string        `json:"scenario"`
	Seed     uint64        `json:"seed"`
	Total    time.Duration `json:"total_ns"`
	// PlannedByPhase counts arrivals per phase.
	PlannedByPhase []int   `json:"planned_by_phase"`
	Events         []Event `json:"events"`
}

// Plan materializes the scenario's schedule.
func (s *Scenario) Plan() (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r := &rng{s: s.Seed}
	p := &Plan{
		Scenario:       s.Name,
		Seed:           s.Seed,
		PlannedByPhase: make([]int, len(s.Phases)),
	}
	clients := s.clientCount()
	cum := cumWeights(s.Mix)
	seq := 0
	offset := time.Duration(0)
	for pi, ph := range s.Phases {
		p.Events = append(p.Events, Event{At: offset, Kind: EvPhase, Phase: pi})
		end := offset + time.Duration(ph.Duration)
		scale := ph.scale()
		emit := func(at time.Duration) {
			p.Events = append(p.Events, Event{
				At: at, Kind: EvArrival, Phase: pi, Seq: seq,
				Cell:   pickCell(cum, r.float()),
				Client: int(r.next() % uint64(clients)),
			})
			p.PlannedByPhase[pi]++
			seq++
		}
		switch s.Arrival.Process {
		case "poisson":
			rate := s.Arrival.Rate * scale
			for t := advance(offset, r.exp(rate), end); t < end; t = advance(t, r.exp(rate), end) {
				emit(t)
			}
		case "bursty":
			n := int(s.burst(scale))
			for t := offset; t < end; t = advance(t, time.Duration(s.Arrival.BurstEvery), end) {
				for i := 0; i < n; i++ {
					emit(t)
				}
			}
		}
		offset = end
	}
	p.Total = offset
	for _, rs := range s.Ramp {
		at := time.Duration(rs.At)
		pi := 0
		acc := time.Duration(0)
		for i, ph := range s.Phases {
			if at < acc+time.Duration(ph.Duration) {
				pi = i
				break
			}
			acc += time.Duration(ph.Duration)
		}
		p.Events = append(p.Events, Event{At: at, Kind: EvRamp, Phase: pi, AddWorkers: rs.AddWorkers})
	}
	// Events were built phase-ordered; fold the ramps in. The sort is
	// stable so simultaneous events keep their build order (phase
	// marker first, then that instant's arrivals).
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p, nil
}

// Encode renders the plan as deterministic JSON — the byte-identical
// representation the determinism check compares.
func (p *Plan) Encode() ([]byte, error) {
	return json.MarshalIndent(p, "", " ")
}

// Digest is the sha256 of Encode, stamped into the artifact.
func (p *Plan) Digest() (string, error) {
	b, err := p.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// cumWeights builds the cumulative weight scale of the mix.
func cumWeights(mix []MixEntry) []float64 {
	cum := make([]float64, len(mix))
	total := 0.0
	for i, m := range mix {
		total += m.Weight
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return cum
}

// pickCell maps a uniform draw onto the cumulative scale.
func pickCell(cum []float64, u float64) int {
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return len(cum) - 1
}

// ops generates the arrival's program: the workload matrix cell's
// read/RMW pattern (Spec.Body's variable choice, reproduced as a
// declarative program so it crosses the wire) over the target's
// variable range. proc partitions disjoint cells; seq makes each
// arrival's picks distinct yet replayable.
func (c cell) ops(proc, seq, workers, vars int) []server.Op {
	n := workers * c.contention.VarsPerProc
	if n > vars {
		n = vars
	}
	if n < 1 {
		n = 1
	}
	perProc := n / workers
	if perProc < 1 {
		perProc = 1
	}
	h := uint64(proc)*2654435761 + uint64(seq)*97 + 1
	pick := func() int {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		if c.sharing == workload.Disjoint {
			idx := (proc%workers)*perProc + int(h%uint64(perProc))
			return idx % n
		}
		return int(h % uint64(n))
	}
	ops := make([]server.Op, 0, c.mix.Reads+c.mix.Writes)
	for r := 0; r < c.mix.Reads; r++ {
		ops = append(ops, server.Op{Kind: server.OpRead, Var: pick()})
	}
	for w := 0; w < c.mix.Writes; w++ {
		ops = append(ops, server.Op{Kind: server.OpIncr, Var: pick(), Val: 1})
	}
	return ops
}
