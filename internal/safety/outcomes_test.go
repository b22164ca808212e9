package safety

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"

	"livetm/internal/model"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stream_outcomes.golden from the current checker")

// streamOutcome streams h through a checker with the given budget,
// with or without the approximate fallback, and renders everything the
// verdict says: where the stream stopped and why, Holds, Segments,
// ForcedCuts, RelaxedStraddlers and the failing segment's number.
func streamOutcome(h model.History, budget int, approx bool) string {
	c, err := NewStreamChecker(budget)
	if err != nil {
		return "new: " + err.Error()
	}
	if approx {
		c.WithApproxFallback()
	}
	stop := "none"
	for i, e := range h {
		if err := c.Feed(e); err != nil {
			stop = fmt.Sprintf("feed@%d:%s", i, errClass(err))
			break
		}
	}
	res, err := c.Finish()
	if err != nil {
		if stop == "none" {
			stop = "finish:" + errClass(err)
		}
		return "stop=" + stop
	}
	failed := "-"
	if m := failedSegment.FindStringSubmatch(res.Reason); m != nil {
		failed = m[1]
	}
	return fmt.Sprintf("stop=%s holds=%t segments=%d forced=%d relaxed=%d failed=%s",
		stop, res.Holds, res.Segments, res.ForcedCuts, res.RelaxedStraddlers, failed)
}

var failedSegment = regexp.MustCompile(`segment (\d+) `)

func errClass(err error) string {
	switch {
	case errors.Is(err, ErrStreamNotOpaque):
		return "not-opaque"
	case errors.Is(err, ErrNoQuiescentCut):
		return "no-cut"
	default:
		return "error"
	}
}

// TestStreamOutcomesGolden pins the streaming checker's verdicts —
// Holds, Segments, ForcedCuts, RelaxedStraddlers, the failing segment
// and the event it stopped at — on the synthetic violating streams,
// both update-stream shapes and 200 random small histories, at several
// budgets, exact and with the approximate fallback. Run with -update
// to rewrite the golden.
func TestStreamOutcomesGolden(t *testing.T) {
	var b strings.Builder
	for _, v := range shapeVariants {
		for _, k := range []int{5, 20} {
			cfg := StreamGenConfig{Increments: k, StaleDepth: 3}
			v.set(&cfg)
			h := ViolatingStream(cfg)
			for _, budget := range []int{3, 8, 63} {
				for _, approx := range []bool{false, true} {
					fmt.Fprintf(&b, "violating/%s/k%d b%d approx=%t %s\n", v.name, k, budget, approx, streamOutcome(h, budget, approx))
				}
			}
		}
	}
	for _, shape := range []struct {
		name      string
		procs     int
		staggered bool
	}{
		{"lockstep2", 2, false},
		{"staggered5", 5, true},
	} {
		h := updateStream(shape.procs, 300, shape.staggered)
		for _, budget := range []int{3, 8, 48, 63} {
			for _, approx := range []bool{false, true} {
				fmt.Fprintf(&b, "update/%s b%d approx=%t %s\n", shape.name, budget, approx, streamOutcome(h, budget, approx))
			}
		}
	}
	rng := rand.New(rand.NewSource(37))
	raw := make([]byte, 24)
	for i := 0; i < 200; i++ {
		rng.Read(raw)
		h := genHistory(raw)
		for _, budget := range []int{2, 4, 8} {
			for _, approx := range []bool{false, true} {
				fmt.Fprintf(&b, "gen/%03d b%d approx=%t %s\n", i, budget, approx, streamOutcome(h, budget, approx))
			}
		}
	}
	const golden = "testdata/stream_outcomes.golden"
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d:\n got: %s\nwant: %s", golden, i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d outcome lines, %s has %d", len(gotLines), golden, len(wantLines))
	}
}
