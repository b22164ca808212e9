package loadgen

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzPlanBudget caps the arrivals a fuzzed scenario is planned with.
// Plan is linear in them, and Validate admits millions; past this the
// fuzzer would spend its time materializing schedules instead of
// exploring files.
const fuzzPlanBudget = 1 << 12

// FuzzLoadScenario holds Load to its contract on any file: it never
// panics, what it accepts passes Validate, and the plan of an accepted
// scenario is a pure function of the file — two Plan().Encode() calls
// are byte-identical. The seeds are the committed scenarios and
// TestLoadStrict's rows; the corner cases found so far are under
// testdata/fuzz.
func FuzzLoadScenario(f *testing.F) {
	for _, c := range strictScenarios {
		f.Add([]byte(c.body))
	}
	committed, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(committed) == 0 {
		f.Fatalf("no committed scenarios found (%v)", err)
	}
	for _, path := range committed {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	path := filepath.Join(f.TempDir(), "scenario.json")
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		sc, _, err := Load(path)
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("Load accepted a scenario Validate refuses: %v", err)
		}
		if sc.arrivals() > fuzzPlanBudget {
			return
		}
		var plans [2][]byte
		for i := range plans {
			p, err := sc.Plan()
			if err != nil {
				t.Fatalf("plan of an accepted scenario: %v", err)
			}
			if plans[i], err = p.Encode(); err != nil {
				t.Fatalf("encode plan: %v", err)
			}
		}
		if !bytes.Equal(plans[0], plans[1]) {
			t.Fatalf("two plans of one scenario differ:\n%s\n%s", plans[0], plans[1])
		}
	})
}
