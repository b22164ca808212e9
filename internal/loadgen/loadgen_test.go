package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"livetm/internal/client"
	"livetm/internal/engine"
	"livetm/internal/server"
)

func testScenario() *Scenario {
	return &Scenario{
		Name: "unit",
		Seed: 42,
		Arrival: Arrival{
			Process: "poisson",
			Rate:    600,
		},
		Mix: []MixEntry{
			{Cell: "update/hot/shared", Weight: 3},
			{Cell: "readheavy/cold/disjoint", Weight: 1},
		},
		Phases: []Phase{
			{Name: "warmup", Duration: Duration(150 * time.Millisecond)},
			{Name: "steady", Duration: Duration(300 * time.Millisecond), RateScale: 1.5},
		},
		Clients: 6,
	}
}

// TestPlanDeterminism is the acceptance criterion in miniature: the
// same scenario + seed materializes into byte-identical schedules,
// and a different seed into a different one.
func TestPlanDeterminism(t *testing.T) {
	sc := testScenario()
	p1, err := sc.Plan()
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	p2, err := sc.Plan()
	if err != nil {
		t.Fatalf("plan again: %v", err)
	}
	b1, _ := p1.Encode()
	b2, _ := p2.Encode()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same scenario + seed produced different schedules")
	}
	if len(p1.Events) < 100 {
		t.Fatalf("plan has %d events, expected a few hundred arrivals", len(p1.Events))
	}
	sc.Seed = 43
	p3, err := sc.Plan()
	if err != nil {
		t.Fatalf("plan seed 43: %v", err)
	}
	d1, _ := p1.Digest()
	d3, _ := p3.Digest()
	if d1 == d3 {
		t.Fatalf("different seeds produced the same plan digest")
	}
}

// TestPlanBursty pins the bursty process: bursts land on the period
// grid, all arrivals of a burst at the same instant, sized by
// rate × period and scaled per phase.
func TestPlanBursty(t *testing.T) {
	sc := testScenario()
	sc.Arrival = Arrival{Process: "bursty", BurstSize: 5, BurstEvery: Duration(50 * time.Millisecond)}
	sc.Phases = []Phase{
		{Name: "steady", Duration: Duration(200 * time.Millisecond)},
		{Name: "surge", Duration: Duration(100 * time.Millisecond), RateScale: 2},
	}
	p, err := sc.Plan()
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if got := p.PlannedByPhase[0]; got != 4*5 {
		t.Fatalf("steady planned %d arrivals, want 20", got)
	}
	if got := p.PlannedByPhase[1]; got != 2*10 {
		t.Fatalf("surge planned %d arrivals, want 20 (burst size doubled)", got)
	}
	for _, ev := range p.Events {
		if ev.Kind == EvArrival && ev.At%(50*time.Millisecond) != 0 {
			t.Fatalf("arrival off the burst grid at %v", ev.At)
		}
	}
}

// TestRunInProcessDeterministicArtifact runs the same scenario twice
// against fresh sessions and compares every deterministic artifact
// field — the "identical artifact modulo timestamps (and measured
// quantities)" acceptance criterion.
func TestRunInProcessDeterministicArtifact(t *testing.T) {
	run := func() *Artifact {
		sess, err := engine.Open(engine.SessionConfig{
			Engine: "native-tl2", Workers: 2, Vars: 8, MaxQueue: 256,
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		sc := testScenario()
		sc.Gates = &Gates{MaxAbortRate: 0.99, MinThroughput: 1}
		art, err := Run(context.Background(), &SessionTarget{S: sess, NVars: 8}, sc, "hash123", Options{})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		rep, err := sess.Close()
		if err != nil {
			t.Fatalf("close: %v", err)
		}
		art.AttachReport(rep)
		return art
	}
	a, b := run(), run()
	if a.PlanDigest != b.PlanDigest || a.PlanDigest == "" {
		t.Fatalf("plan digests differ: %q vs %q", a.PlanDigest, b.PlanDigest)
	}
	if a.ScenarioHash != "hash123" || a.Seed != 42 || a.Schema != ArtifactSchema {
		t.Fatalf("provenance fields wrong: %+v", a)
	}
	if a.PlannedArrivals != b.PlannedArrivals {
		t.Fatalf("planned arrivals differ: %d vs %d", a.PlannedArrivals, b.PlannedArrivals)
	}
	for i := range a.Phases {
		if a.Phases[i].Planned != b.Phases[i].Planned || a.Phases[i].Name != b.Phases[i].Name {
			t.Fatalf("phase %d plan differs: %+v vs %+v", i, a.Phases[i], b.Phases[i])
		}
	}
	// The measured side must be populated and coherent.
	total := uint64(0)
	for _, p := range a.Phases {
		total += p.Committed + p.NoCommits + p.Dropped + p.Shed + p.Errors
	}
	if total == 0 {
		t.Fatalf("no arrival completed: %+v", a.Phases)
	}
	steady := a.Phases[1]
	if steady.Dispatched == 0 || steady.P99MS <= 0 {
		t.Fatalf("steady phase unmeasured: %+v", steady)
	}
	// Gates embedded from the scenario evaluate against the artifact.
	results := Evaluate(a, *a.Gates)
	if !Passed(results) {
		t.Fatalf("loose development gates failed: %+v", results)
	}
}

// TestRunRampAddsWorkers drives a ramp schedule against an in-process
// session and checks the pool actually grew under load.
func TestRunRampAddsWorkers(t *testing.T) {
	sess, err := engine.Open(engine.SessionConfig{
		Engine: "native-tl2", Workers: 2, MaxWorkers: 4, Vars: 8,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer sess.Close()
	sc := testScenario()
	sc.Ramp = []RampStep{{At: Duration(200 * time.Millisecond), AddWorkers: 2}}
	tgt := &SessionTarget{S: sess, NVars: 8}
	if _, err := Run(context.Background(), tgt, sc, "", Options{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if w := sess.Stats().Workers; w != 4 {
		t.Fatalf("workers after ramp = %d, want 4", w)
	}
}

// strictBase is the body of a minimal valid scenario object.
const strictBase = `"name": "strict", "arrival": {"process": "poisson", "rate": 10},
	"mix": [{"cell": "update/hot/shared", "weight": 1}],
	"phases": [{"name": "steady", "duration": "1s"}]`

// strictScenarios are scenario files Load must accept (ok) or refuse
// as it parses them. FuzzLoadScenario starts from them too.
var strictScenarios = []struct {
	name, body string
	ok         bool
}{
	{"known keys", `{` + strictBase + `, "session": {"engine": "native-tl2", "workers": 2, "vars": 4}}`, true},
	{"shards key", `{` + strictBase + `, "session": {"engine": "native-tl2", "workers": 2, "vars": 4, "shards": 4}}`, false},
	{"bench gate", `{` + strictBase + `, "gates": {"min_throughput": 10, "bench_cell": "native-tl2 p4/update/hot/shared", "bench_fraction": 0.0002}}`, false},
	{"singular fault", `{"name": "strict", "arrival": {"process": "poisson", "rate": 10},
		"mix": [{"cell": "update/hot/shared", "weight": 1}],
		"phases": [{"name": "inject", "duration": "1s", "fault": "alg2-parasitic"}]}`, false},
	{"misspelled key", `{` + strictBase + `, "retires": 3}`, false},
	{"trailing data", `{` + strictBase + `} {}`, false},
}

// TestLoadStrict: Load refuses keys the schema does not have — a stale
// "shards" session key or a misspelling would otherwise run a different
// session than the file describes — and every committed scenario file
// still loads.
func TestLoadStrict(t *testing.T) {
	type row struct {
		name, path string
		ok         bool
	}
	dir := t.TempDir()
	var rows []row
	for _, c := range strictScenarios {
		path := filepath.Join(dir, c.name+".json")
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{c.name, path, c.ok})
	}
	committed, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(committed) == 0 {
		t.Fatalf("no committed scenarios found (%v)", err)
	}
	for _, path := range committed {
		rows = append(rows, row{filepath.Base(path), path, true})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			_, _, err := Load(r.path)
			if r.ok && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !r.ok && (err == nil || !strings.Contains(err.Error(), "parse")) {
				t.Fatalf("err = %v, want a parse error", err)
			}
		})
	}
}

// TestRunCapabilityValidation: a ramping scenario must be rejected on
// a wire target and a faulting one on a session target, before any
// traffic flows.
func TestRunCapabilityValidation(t *testing.T) {
	sess, err := engine.Open(engine.SessionConfig{Engine: "native-tl2", Workers: 2, Vars: 4})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer sess.Close()
	sc := testScenario()
	sc.Phases[1].Faults = []string{"alg1"}
	if _, err := Run(context.Background(), &SessionTarget{S: sess, NVars: 4}, sc, "", Options{}); err == nil {
		t.Fatalf("fault scenario ran against a session target")
	}
}

// TestLayeredFaultValidation pins the layered-fault schema: distinct
// known names layer, duplicates and unknown names are rejected.
func TestLayeredFaultValidation(t *testing.T) {
	sc := testScenario()
	sc.Phases[1].Faults = []string{"alg1-crash", "alg2-parasitic"}
	if err := sc.Validate(); err != nil {
		t.Fatalf("layered faults rejected: %v", err)
	}
	sc.Phases[1].Faults = []string{"alg2-parasitic"}
	if err := sc.Validate(); err != nil {
		t.Fatalf("single fault rejected: %v", err)
	}
	sc.Phases[1].Faults = []string{"alg1-crash", "alg1-crash"}
	if err := sc.Validate(); err == nil {
		t.Fatalf("duplicate fault within Faults accepted")
	}
	sc.Phases[1].Faults = []string{"alg2-parasitic", "no-such-fault"}
	if err := sc.Validate(); err == nil {
		t.Fatalf("unknown layered fault accepted")
	}
}

// TestRunLayeredFaultsOverWire layers a crash-variant fault with a
// parasitic one in a single inject phase and checks each strategy ran
// its own episode loop, and that the v2 artifact carries the layered
// keys only, not v1's singular "fault" / "fault_result".
func TestRunLayeredFaultsOverWire(t *testing.T) {
	sess, err := engine.Open(engine.SessionConfig{
		Engine: "native-tl2", Workers: 2, Vars: 8, MaxQueue: 256,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	srv := server.New(sess, server.Config{
		Info: server.InfoResponse{Engine: sess.Name(), Workers: 2, Vars: 8},
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _ = srv.Drain(ctx)
	}()

	c := client.New(client.Config{Addr: hs.URL, Name: "lg"})
	tgt, err := NewWireTarget(context.Background(), c)
	if err != nil {
		t.Fatalf("wire target: %v", err)
	}
	sc := testScenario()
	sc.Arrival.Rate = 200
	sc.Phases = []Phase{
		{Name: "warmup", Duration: Duration(100 * time.Millisecond)},
		{Name: "inject", Duration: Duration(700 * time.Millisecond),
			Faults: []string{"alg1-crash", "alg2-parasitic"}},
		{Name: "recovery", Duration: Duration(100 * time.Millisecond)},
	}
	art, err := Run(context.Background(), tgt, sc, "", Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	inj := art.Phases[1]
	if len(inj.Faults) != 2 || inj.Faults[0] != "alg1-crash" || inj.Faults[1] != "alg2-parasitic" {
		t.Fatalf("inject faults = %v", inj.Faults)
	}
	if len(inj.FaultResults) != 2 {
		t.Fatalf("inject has %d fault results, want 2: %+v", len(inj.FaultResults), inj.FaultResults)
	}
	for i, fr := range inj.FaultResults {
		if fr.Strategy != inj.Faults[i] {
			t.Fatalf("fault result %d is %q, want %q", i, fr.Strategy, inj.Faults[i])
		}
		if fr.Error != "" {
			t.Fatalf("fault %s errored: %s", fr.Strategy, fr.Error)
		}
		if fr.Runs < 1 {
			t.Fatalf("fault %s never completed an episode: %+v", fr.Strategy, fr)
		}
	}
	raw, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	var generic struct {
		Schema string                       `json:"schema"`
		Phases []map[string]json.RawMessage `json:"phases"`
	}
	if err := json.Unmarshal(raw, &generic); err != nil {
		t.Fatal(err)
	}
	if generic.Schema != "livetm/loadgen/v2" {
		t.Fatalf("schema = %q, want livetm/loadgen/v2", generic.Schema)
	}
	for _, ph := range generic.Phases {
		for _, key := range []string{"fault", "fault_result"} {
			if _, ok := ph[key]; ok {
				t.Fatalf("phase %s carries the v1 key %q", ph["name"], key)
			}
		}
	}
	if _, ok := generic.Phases[1]["fault_results"]; !ok {
		t.Fatalf("inject phase lacks fault_results: %s", raw)
	}
	for _, pi := range []int{0, 2} {
		if len(art.Phases[pi].Faults) != 0 || len(art.Phases[pi].FaultResults) != 0 {
			t.Fatalf("phase %s unexpectedly carries faults: %+v", art.Phases[pi].Name, art.Phases[pi])
		}
	}
}

// TestRunOverWire drives a short scenario against a served session
// through WireTarget, with identity churn wide enough to cross the
// server's (shortened) eviction grace, asserting the admission layer
// stays bounded while the artifact fills in.
func TestRunOverWire(t *testing.T) {
	sess, err := engine.Open(engine.SessionConfig{
		Engine: "native-tl2", Workers: 2, Vars: 8, MaxQueue: 256,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	srv := server.New(sess, server.Config{
		Info:            server.InfoResponse{Engine: sess.Name(), Workers: 2, Vars: 8},
		ClientIdleAfter: 50 * time.Millisecond,
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _ = srv.Drain(ctx)
	}()

	c := client.New(client.Config{Addr: hs.URL, Name: "lg"})
	tgt, err := NewWireTarget(context.Background(), c)
	if err != nil {
		t.Fatalf("wire target: %v", err)
	}
	sc := testScenario()
	sc.Clients = 64
	art, err := Run(context.Background(), tgt, sc, "wirehash", Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if art.Target != "wire/native-tl2" {
		t.Fatalf("target = %q", art.Target)
	}
	var committed uint64
	for _, p := range art.Phases {
		committed += p.Committed
	}
	if committed == 0 {
		t.Fatalf("nothing committed over the wire: %+v", art.Phases)
	}
}

// TestGateEvaluate pins the gate semantics: warmup excluded, each
// threshold judged on the worst steady phase, and degradation flips
// the verdict.
func TestGateEvaluate(t *testing.T) {
	art := &Artifact{
		Schema: ArtifactSchema, Scenario: "g", LivenessClass: "global progress",
		Phases: []PhaseResult{
			{Name: "warmup", DurationMS: 500, Committed: 10, P99MS: 900, AbortRate: 0.99},
			{Name: "steady", DurationMS: 1000, Committed: 400, P99MS: 20, AbortRate: 0.2, RefusalRate: 0.05},
			{Name: "recovery", DurationMS: 500, Committed: 200, P99MS: 35, AbortRate: 0.3, RefusalRate: 0.01},
		},
	}
	g := Gates{MaxP99MS: 50, MaxAbortRate: 0.5, MaxRefusalRate: 0.1, MinThroughput: 100, MinLiveness: "solo progress"}
	if res := Evaluate(art, g); !Passed(res) {
		t.Fatalf("healthy artifact failed: %+v", res)
	}
	// Warmup's terrible numbers were excluded; degrade a steady phase
	// and each gate trips.
	bad := *art
	bad.Phases = append([]PhaseResult(nil), art.Phases...)
	bad.Phases[2].P99MS = 80
	if res := Evaluate(&bad, g); Passed(res) {
		t.Fatalf("degraded p99 passed: %+v", res)
	}
	bad.Phases[2] = art.Phases[2]
	bad.Phases[1].AbortRate = 0.8
	if res := Evaluate(&bad, g); Passed(res) {
		t.Fatalf("degraded abort rate passed: %+v", res)
	}
	bad.Phases[1] = art.Phases[1]
	bad.LivenessClass = "none"
	if res := Evaluate(&bad, g); Passed(res) {
		t.Fatalf("liveness collapse passed: %+v", res)
	}
	if Passed(nil) {
		t.Fatalf("an empty gate set must not pass")
	}
}

// Passed reports whether every evaluated gate passed (and that at
// least one was evaluated — an empty gate set cannot greenlight).
func Passed(results []GateResult) bool {
	if len(results) == 0 {
		return false
	}
	for _, r := range results {
		if !r.Pass {
			return false
		}
	}
	return true
}

// An artifact names the build of the binary that wrote it, read from
// the binary's own VCS stamp; without one GitDescribe looks elsewhere.
func TestBuildStamp(t *testing.T) {
	const rev = "0123456789abcdef0123456789abcdef01234567"
	cases := []struct {
		name     string
		settings []debug.BuildSetting
		want     string
		ok       bool
	}{
		{"revision", []debug.BuildSetting{{Key: "vcs", Value: "git"}, {Key: "vcs.revision", Value: rev}, {Key: "vcs.modified", Value: "false"}}, "0123456789ab", true},
		{"revision and modified", []debug.BuildSetting{{Key: "vcs.modified", Value: "true"}, {Key: "vcs.revision", Value: rev}}, "0123456789ab-dirty", true},
		{"no VCS keys", []debug.BuildSetting{{Key: "-compiler", Value: "gc"}, {Key: "GOOS", Value: "linux"}}, "", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got, ok := buildStamp(c.settings); got != c.want || ok != c.ok {
				t.Fatalf("buildStamp = %q, %v; want %q, %v", got, ok, c.want, c.ok)
			}
		})
	}
}

// Validate admits only scenarios whose plan is finite and fits in
// memory, and Plan reaches the end of every phase it admits, however
// far off that end or the next arrival is.
func TestValidateBoundsThePlan(t *testing.T) {
	scenario := func(a Arrival, phases ...Phase) *Scenario {
		return &Scenario{Name: "bounds", Arrival: a, Mix: []MixEntry{{Cell: "update/hot/shared", Weight: 1}}, Phases: phases}
	}
	phase := func(d time.Duration) Phase { return Phase{Name: "p", Duration: Duration(d)} }
	const forever = time.Duration(math.MaxInt64)
	for _, tc := range []struct {
		name     string
		sc       *Scenario
		err      string // a substring of Validate's refusal; "" admits
		arrivals int    // planned when admitted; -1 leaves it to chance
	}{
		{"a rate too low ever to arrive", scenario(Arrival{Process: "poisson", Rate: 1e-300}, phase(time.Second)), "", 0},
		{"one arrival a nanosecond", scenario(Arrival{Process: "poisson", Rate: 1e9}, phase(time.Microsecond)), "", -1},
		{"two arrivals a nanosecond", scenario(Arrival{Process: "poisson", Rate: 2e9}, phase(time.Microsecond)), "per nanosecond", 0},
		{"phases past the end of time", scenario(Arrival{Process: "poisson", Rate: 1e-9}, phase(forever), phase(forever)), "longest duration", 0},
		{"too many arrivals", scenario(Arrival{Process: "poisson", Rate: 1e6}, phase(time.Hour)), "arrivals", 0},
		{"a burst a nanosecond for an hour", scenario(Arrival{Process: "bursty", BurstSize: 1, BurstEvery: 1}, phase(time.Hour)), "arrivals", 0},
		{"the last burst at the end of time", scenario(Arrival{Process: "bursty", BurstSize: 1, BurstEvery: Duration(forever)}, phase(forever-1), phase(1)), "", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sc.Validate()
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Validate = %v, want a refusal naming %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Validate refused: %v", err)
			}
			p, err := tc.sc.Plan()
			if err != nil {
				t.Fatalf("Plan: %v", err)
			}
			n := 0
			for _, k := range p.PlannedByPhase {
				n += k
			}
			if tc.arrivals >= 0 && n != tc.arrivals {
				t.Errorf("planned %d arrivals, want %d", n, tc.arrivals)
			}
		})
	}
}
