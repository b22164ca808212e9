package safety

import (
	"errors"
	"testing"
	"testing/quick"

	"livetm/internal/model"
	"livetm/internal/telemetry"
)

// feedAll streams a whole history through a fresh checker.
func feedAll(t *testing.T, h model.History, budget int) (SegmentedResult, error) {
	t.Helper()
	c, err := NewStreamChecker(budget)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range h {
		if err := c.Feed(e); err != nil {
			return SegmentedResult{}, err
		}
	}
	return c.Finish()
}

func TestStreamAgreesOnFigures(t *testing.T) {
	tests := []struct {
		name string
		h    model.History
		want bool
	}{
		{"fig1", fig1(), true},
		{"fig3", fig3(), false},
		{"fig4", fig4(), false},
		{"fig8", figAlg1Termination(0), false},
		// Each variable's value sequence is innocent; only the joint
		// snapshot p2 read is unreachable.
		{"crossvariable", ViolatingStream(StreamGenConfig{Increments: 6, StaleDepth: 2, CrossVariable: true}), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := feedAll(t, tt.h, 8)
			if err != nil && !errors.Is(err, ErrStreamNotOpaque) {
				t.Fatal(err)
			}
			if err == nil && res.Holds != tt.want {
				t.Errorf("stream = %v (%s), want %v", res.Holds, res.Reason, tt.want)
			}
			if err != nil && tt.want {
				t.Errorf("stream rejected an opaque history: %v", err)
			}
		})
	}
}

// Property: on every small random history, the streaming checker
// either agrees with the whole-history reference search or refuses for
// lack of quiescent cuts — it never returns a wrong verdict.
func TestStreamAgreesWithMonolithic(t *testing.T) {
	f := func(raw []uint8) bool {
		h := genHistory(raw)
		mono, err := referenceOpacity(h)
		if err != nil {
			return true
		}
		c, err := NewStreamChecker(4)
		if err != nil {
			return false
		}
		var streamErr error
		for _, e := range h {
			if streamErr = c.Feed(e); streamErr != nil {
				break
			}
		}
		var res SegmentedResult
		if streamErr == nil {
			res, streamErr = c.Finish()
		}
		switch {
		case errors.Is(streamErr, ErrStreamNotOpaque):
			return !mono.Holds
		case errors.Is(streamErr, ErrNoQuiescentCut):
			return true // refused, not decided
		case streamErr != nil:
			return false
		default:
			return res.Holds == mono.Holds
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStreamLongHistoryBoundedMemory: 300 sequential transactions
// stream through without the buffer ever holding more than one
// segment's worth of events.
func TestStreamLongHistoryBoundedMemory(t *testing.T) {
	c, err := NewStreamChecker(8)
	if err != nil {
		t.Fatal(err)
	}
	b := model.NewBuilder()
	for i := 0; i < 300; i++ {
		p := model.Proc(i%3 + 1)
		b.Read(p, 0, model.Value(i)).Write(p, 0, model.Value(i+1)).Commit(p)
	}
	maxBuffered := 0
	for _, e := range b.History() {
		if err := c.Feed(e); err != nil {
			t.Fatal(err)
		}
		if c.Buffered() > maxBuffered {
			maxBuffered = c.Buffered()
		}
	}
	res, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("sequential counter chain must be opaque: %s", res.Reason)
	}
	if res.Segments < 300/9 {
		t.Errorf("segments = %d, want at least %d", res.Segments, 300/9)
	}
	// 9 transactions × 6 events is the most one flush can leave behind.
	if maxBuffered > 9*6 {
		t.Errorf("buffer grew to %d events; memory is not bounded by the segment budget", maxBuffered)
	}
}

// TestStreamViolationIsTerminal: the violation surfaces from Feed as
// soon as the failing segment flushes, and the checker stays failed.
func TestStreamViolationIsTerminal(t *testing.T) {
	c, err := NewStreamChecker(2)
	if err != nil {
		t.Fatal(err)
	}
	b := model.NewBuilder()
	for i := 0; i < 6; i++ {
		b.Read(1, 0, model.Value(i)).Write(1, 0, model.Value(i+1)).Commit(1)
	}
	b.Read(2, 0, 99).Commit(2) // unexplained value
	for i := 0; i < 6; i++ {
		b.Read(1, 0, model.Value(i)).Write(1, 0, model.Value(i+1)).Commit(1)
	}
	h := b.History()
	var fed, failAt int
	var feedErr error
	for i, e := range h {
		fed = i
		if feedErr = c.Feed(e); feedErr != nil {
			failAt = i
			break
		}
	}
	if !errors.Is(feedErr, ErrStreamNotOpaque) {
		t.Fatalf("err = %v after %d events, want ErrStreamNotOpaque", feedErr, fed)
	}
	if failAt == len(h)-1 {
		t.Error("violation only surfaced at the end of the stream")
	}
	if err := c.Feed(h[len(h)-1]); !errors.Is(err, ErrStreamNotOpaque) {
		t.Errorf("Feed after violation = %v, want ErrStreamNotOpaque", err)
	}
	res, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds || res.Reason == "" {
		t.Errorf("Finish after violation = %+v", res)
	}
}

// TestStreamFinalSegmentLive: live and commit-pending transactions are
// legal only in the final segment, where Finish handles them.
func TestStreamFinalSegmentLive(t *testing.T) {
	b := model.NewBuilder()
	b.Read(1, 0, 0).Write(1, 0, 1).Commit(1)
	b.Raw(model.Read(2, 0), model.ValueResp(2, 1))               // live at the end
	b.Raw(model.Write(3, 0, 5), model.OK(3), model.TryCommit(3)) // commit-pending
	res, err := feedAll(t, b.History(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("history with trailing live transactions must hold: %s", res.Reason)
	}
}

func TestStreamValidation(t *testing.T) {
	if _, err := NewStreamChecker(0); err == nil {
		t.Error("budget 0 must be rejected")
	}
	if _, err := NewStreamChecker(65); !errors.Is(err, ErrTooManyTransactions) {
		t.Errorf("budget 65: err = %v, want ErrTooManyTransactions", err)
	}
	c, err := NewStreamChecker(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Finish()
	if err != nil || !res.Holds {
		t.Errorf("empty stream must hold: %+v, %v", res, err)
	}
	if err := c.Feed(model.Commit(1)); err == nil {
		t.Error("Feed after Finish must error")
	}
}

// TestStreamNoCut: more concurrent transactions than the budget with
// no quiescent point is refused.
func TestStreamNoCut(t *testing.T) {
	var h model.History
	for p := model.Proc(1); p <= 5; p++ {
		h = append(h, model.Read(p, 0), model.ValueResp(p, 0))
	}
	for p := model.Proc(1); p <= 5; p++ {
		h = append(h, model.TryCommit(p), model.Commit(p))
	}
	_, err := feedAll(t, h, 2)
	if !errors.Is(err, ErrNoQuiescentCut) {
		t.Errorf("err = %v, want ErrNoQuiescentCut", err)
	}
	res, err := feedAll(t, h, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("read-only concurrent transactions are opaque: %s", res.Reason)
	}
}

// TestStreamApproxFallbackDecides: a cut-starved stream the strict
// checker refuses degrades to an explicit approximate verdict with
// the bounded-overlap fallback enabled.
func TestStreamApproxFallbackDecides(t *testing.T) {
	// Process 1 opens a transaction and never completes it, so no
	// quiescent cut ever forms; process 2 runs a long sequential
	// counter chain underneath.
	b := model.NewBuilder()
	b.Raw(model.Read(1, 1), model.ValueResp(1, 0)) // stays open forever
	for i := 0; i < 40; i++ {
		b.Read(2, 0, model.Value(i)).Write(2, 0, model.Value(i+1)).Commit(2)
	}
	h := b.History()

	if _, err := feedAll(t, h, 4); !errors.Is(err, ErrNoQuiescentCut) {
		t.Fatalf("strict checker: err = %v, want ErrNoQuiescentCut", err)
	}

	c, err := NewStreamChecker(4)
	if err != nil {
		t.Fatal(err)
	}
	c.WithApproxFallback()
	maxBuffered := 0
	for _, e := range h {
		if err := c.Feed(e); err != nil {
			t.Fatalf("approx checker refused: %v", err)
		}
		if c.Buffered() > maxBuffered {
			maxBuffered = c.Buffered()
		}
	}
	res, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("opaque cut-starved stream judged violating: %s", res.Reason)
	}
	if !res.Approx || res.ForcedCuts == 0 {
		t.Fatalf("verdict not marked approximate: %+v", res)
	}
	// Memory stays bounded by the window even without quiescent cuts:
	// 5 completed transactions x 6 events plus the open straggler.
	if maxBuffered > 5*6+2 {
		t.Errorf("buffer grew to %d events despite forced frontiers", maxBuffered)
	}
}

// TestStreamApproxFallbackViolation: the fallback still catches a
// violation inside one window, reported as an approximate verdict.
func TestStreamApproxFallbackViolation(t *testing.T) {
	b := model.NewBuilder()
	b.Raw(model.Read(1, 1), model.ValueResp(1, 0)) // cut starver
	for i := 0; i < 6; i++ {
		b.Read(2, 0, model.Value(i)).Write(2, 0, model.Value(i+1)).Commit(2)
	}
	b.Read(3, 0, 99).Commit(3) // unexplained value
	for i := 6; i < 12; i++ {
		b.Read(2, 0, model.Value(i)).Write(2, 0, model.Value(i+1)).Commit(2)
	}
	c, err := NewStreamChecker(3)
	if err != nil {
		t.Fatal(err)
	}
	c.WithApproxFallback()
	var feedErr error
	for _, e := range b.History() {
		if feedErr = c.Feed(e); feedErr != nil {
			break
		}
	}
	if !errors.Is(feedErr, ErrStreamNotOpaque) {
		t.Fatalf("err = %v, want ErrStreamNotOpaque", feedErr)
	}
	res, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("violation lost")
	}
	if !res.Approx {
		t.Fatalf("forced-frontier violation not marked approximate: %+v", res)
	}
}

// Property: with the fallback enabled the checker never refuses a
// stream for lack of cuts, and whenever it decides without taking a
// forced frontier it agrees with the monolithic checker exactly.
func TestStreamApproxNeverRefuses(t *testing.T) {
	f := func(raw []uint8) bool {
		h := genHistory(raw)
		mono, err := CheckOpacity(h)
		if err != nil {
			return true
		}
		c, err := NewStreamChecker(4)
		if err != nil {
			return false
		}
		c.WithApproxFallback()
		var streamErr error
		for _, e := range h {
			if streamErr = c.Feed(e); streamErr != nil {
				break
			}
		}
		var res SegmentedResult
		if streamErr == nil {
			res, streamErr = c.Finish()
		}
		switch {
		case errors.Is(streamErr, ErrNoQuiescentCut):
			return false // the fallback's whole point
		case errors.Is(streamErr, ErrStreamNotOpaque):
			res, _ = c.Finish()
			return res.Approx || !mono.Holds
		case streamErr != nil:
			return false
		default:
			return res.Approx || res.Holds == mono.Holds
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStreamStraddlerFalseAlarm pins the fallback's multi-straddler
// soundness hole: two transactions left open across a forced frontier
// whose reads pin different mid-window states (p3 read x before an
// increment, p4 after it). The intervening writer is flushed at the
// frontier, so no single serialization path through the propagated
// snapshots explains both reads — yet the history is genuinely opaque
// (the exact checker decides it). The checker must waive the
// straddlers' unverifiable reads instead of declaring a violation,
// and must report the waivers.
func TestStreamStraddlerFalseAlarm(t *testing.T) {
	b := model.NewBuilder()
	b.Raw(model.Read(3, 0), model.ValueResp(3, 0)) // straddler A: x = 0
	b.Read(1, 0, 0).Write(1, 0, 1).Commit(1)
	b.Raw(model.Read(4, 0), model.ValueResp(4, 1)) // straddler B: x = 1
	for i := 1; i < 9; i++ {
		b.Read(1, 0, model.Value(i)).Write(1, 0, model.Value(i+1)).Commit(1)
	}
	b.Raw(model.TryCommit(3), model.Commit(3))
	b.Raw(model.TryCommit(4), model.Commit(4))
	h := b.History()

	// The history really is opaque: one exact segment covers it.
	exact, err := CheckOpacity(h)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Holds {
		t.Fatalf("fixture history must be opaque: %s", exact.Reason)
	}

	c, err := NewStreamChecker(3)
	if err != nil {
		t.Fatal(err)
	}
	c.WithApproxFallback()
	for i, e := range h {
		if err := c.Feed(e); err != nil {
			t.Fatalf("false alarm at event %d: %v", i, err)
		}
	}
	res, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("opaque two-straddler stream judged violating: %s", res.Reason)
	}
	if !res.Approx || res.ForcedCuts == 0 {
		t.Fatalf("verdict not marked approximate: %+v", res)
	}
	if res.RelaxedStraddlers == 0 {
		t.Fatalf("the waiver must be reported: %+v", res)
	}
}

// The TestSharded* cases below keep the obligations the keyspace-
// sharded router in front of the checker was held to. The router is
// gone; each case now holds the single streaming checker, with the
// forced-frontier fallback on as a live session runs it, to the same
// verdicts.

// TestShardedAgreesOnFigures: with the fallback on, the checker still
// reproduces the paper-figure verdicts; a violation may only be
// reported approximately, never lost.
func TestShardedAgreesOnFigures(t *testing.T) {
	tests := []struct {
		name string
		h    model.History
		want bool
	}{
		{"fig1", fig1(), true},
		{"fig3", fig3(), false},
		{"fig4", fig4(), false},
		{"fig8", figAlg1Termination(0), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := NewStreamChecker(8)
			if err != nil {
				t.Fatal(err)
			}
			c.WithApproxFallback()
			var feedErr error
			for _, e := range tt.h {
				if feedErr = c.Feed(e); feedErr != nil {
					break
				}
			}
			if feedErr != nil && !errors.Is(feedErr, ErrStreamNotOpaque) {
				t.Fatal(feedErr)
			}
			res, err := c.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if res.Holds != tt.want {
				t.Errorf("approx stream = %v (%s), want %v", res.Holds, res.Reason, tt.want)
			}
		})
	}
}

// Property: with the fallback on, at every segment budget, a reported
// violation is always real and an exact "holds" is always right. An
// approximate "holds" may hide a violation (that is what Approx
// declares), never invent one.
func TestShardedNeverFlipsVerdict(t *testing.T) {
	for _, budget := range []int{2, 4, 8} {
		f := func(raw []uint8) bool {
			h := genHistory(raw)
			mono, err := CheckOpacity(h)
			if err != nil {
				return true
			}
			c, err := NewStreamChecker(budget)
			if err != nil {
				return false
			}
			c.WithApproxFallback()
			var streamErr error
			for _, e := range h {
				if streamErr = c.Feed(e); streamErr != nil {
					break
				}
			}
			res, ferr := c.Finish()
			switch {
			case errors.Is(streamErr, ErrStreamNotOpaque):
				return !mono.Holds
			case streamErr != nil, ferr != nil:
				return false
			case !res.Holds:
				return !mono.Holds
			default:
				return res.Approx || mono.Holds
			}
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("budget %d: %v", budget, err)
		}
	}
}

// TestShardedDetectsLocalViolation: a violation on one variable
// surfaces even while a straddler on another variable keeps the stream
// from ever quiescing until its very end.
func TestShardedDetectsLocalViolation(t *testing.T) {
	b := model.NewBuilder()
	b.Raw(model.Read(3, 1), model.ValueResp(3, 0)) // straddler on y
	for i := 0; i < 6; i++ {
		b.Read(1, 0, model.Value(i)).Write(1, 0, model.Value(i+1)).Commit(1)
	}
	b.Read(2, 0, 99).Commit(2) // unexplained value of x
	b.Raw(model.TryCommit(3), model.Commit(3))
	for _, budget := range []int{3, 8} {
		c, err := NewStreamChecker(budget)
		if err != nil {
			t.Fatal(err)
		}
		c.WithApproxFallback()
		var feedErr error
		for _, e := range b.History() {
			if feedErr = c.Feed(e); feedErr != nil {
				break
			}
		}
		if feedErr != nil && !errors.Is(feedErr, ErrStreamNotOpaque) {
			t.Fatalf("budget %d: %v", budget, feedErr)
		}
		res, err := c.Finish()
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if res.Holds {
			t.Fatalf("budget %d: violation lost: %+v", budget, res)
		}
	}
}

// TestShardedViolatingStreamSweep: on every ViolatingStream variant
// and budget, the fallback checker never accepts a violating stream
// exactly — it rejects, or holds only under an explicit approximation
// (the straddler-waiver miss window).
func TestShardedViolatingStreamSweep(t *testing.T) {
	cfgs := []StreamGenConfig{
		{Increments: 6, StaleDepth: 1},
		{Increments: 6, StaleDepth: 3, OpenReader: true},
		{Increments: 6, StaleDepth: 1, StraddlerViolation: true},
		{Increments: 6, StaleDepth: 2, CrossVariable: true},
	}
	for _, gen := range cfgs {
		h := ViolatingStream(gen)
		for _, budget := range []int{3, 8, 63} {
			c, err := NewStreamChecker(budget)
			if err != nil {
				t.Fatal(err)
			}
			c.WithApproxFallback()
			var streamErr error
			for _, e := range h {
				if streamErr = c.Feed(e); streamErr != nil {
					break
				}
			}
			if streamErr != nil && !errors.Is(streamErr, ErrStreamNotOpaque) {
				t.Fatalf("%+v budget %d: %v", gen, budget, streamErr)
			}
			res, err := c.Finish()
			if err != nil {
				t.Fatalf("%+v budget %d: %v", gen, budget, err)
			}
			if res.Holds && !res.Approx {
				t.Errorf("%+v budget %d: violating stream accepted exactly: %+v", gen, budget, res)
			}
		}
	}
}

// TestShardedStraddlerFalseAlarm: the genuinely opaque two-straddler
// history holds at every budget small enough to force frontiers, and
// each such verdict reports its waivers.
func TestShardedStraddlerFalseAlarm(t *testing.T) {
	b := model.NewBuilder()
	b.Raw(model.Read(3, 0), model.ValueResp(3, 0))
	b.Read(1, 0, 0).Write(1, 0, 1).Commit(1)
	b.Raw(model.Read(4, 0), model.ValueResp(4, 1))
	for i := 1; i < 9; i++ {
		b.Read(1, 0, model.Value(i)).Write(1, 0, model.Value(i+1)).Commit(1)
	}
	b.Raw(model.TryCommit(3), model.Commit(3))
	b.Raw(model.TryCommit(4), model.Commit(4))
	for _, budget := range []int{3, 4, 6} {
		c, err := NewStreamChecker(budget)
		if err != nil {
			t.Fatal(err)
		}
		c.WithApproxFallback()
		for i, e := range b.History() {
			if err := c.Feed(e); err != nil {
				t.Fatalf("budget %d: false alarm at event %d: %v", budget, i, err)
			}
		}
		res, err := c.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Holds {
			t.Fatalf("budget %d: opaque two-straddler stream judged violating: %s", budget, res.Reason)
		}
		if !res.Approx || res.ForcedCuts == 0 || res.RelaxedStraddlers == 0 {
			t.Fatalf("budget %d: waivers must be reported: %+v", budget, res)
		}
	}
}

// TestShardedValidation covers the constructor's contract with the
// fallback on: the budget bounds still apply, an empty stream holds
// exactly, and a finished checker takes no more events.
func TestShardedValidation(t *testing.T) {
	if _, err := NewStreamChecker(-1); err == nil {
		t.Error("negative budget must be rejected")
	}
	if _, err := NewStreamChecker(65); !errors.Is(err, ErrTooManyTransactions) {
		t.Errorf("budget 65: err = %v, want ErrTooManyTransactions", err)
	}
	c, err := NewStreamChecker(4)
	if err != nil {
		t.Fatal(err)
	}
	c.WithApproxFallback()
	res, err := c.Finish()
	if err != nil || !res.Holds || res.Approx {
		t.Errorf("empty stream must hold exactly: %+v, %v", res, err)
	}
	if err := c.Feed(model.Commit(1)); err == nil {
		t.Error("Feed after Finish must error")
	}
}

// TestStreamBufferedGaugeShowsCutStarvedBacklog: Feed refreshes the
// Buffered gauge only every bufferedEvery events between flushes, yet a
// backlog that no quiescent cut drains still shows, and the flush that
// finally comes zeroes it.
func TestStreamBufferedGaugeShowsCutStarvedBacklog(t *testing.T) {
	buffered := &telemetry.Gauge{}
	c, err := NewStreamChecker(48)
	if err != nil {
		t.Fatal(err)
	}
	c.WithTelemetry(LaneTelemetry{Buffered: buffered})
	// Process 1's open read keeps every cut away while process 2 commits
	// 20 increments underneath: within the budget, but never flushed.
	feed := func(h ...model.Event) {
		t.Helper()
		for _, e := range h {
			if err := c.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(model.Read(1, 1), model.ValueResp(1, 0))
	for i := model.Value(0); i < 20; i++ {
		feed(model.Read(2, 0), model.ValueResp(2, i), model.Write(2, 0, i+1), model.OK(2), model.TryCommit(2), model.Commit(2))
	}
	if c.Buffered() != 122 {
		t.Fatalf("checker buffers %d events, want 122", c.Buffered())
	}
	if got := buffered.Load(); got < bufferedEvery {
		t.Fatalf("Buffered gauge = %d on a cut-starved backlog of %d events, want at least %d", got, c.Buffered(), bufferedEvery)
	}
	feed(model.TryCommit(1), model.Commit(1))
	if got := buffered.Load(); got != 0 {
		t.Fatalf("Buffered gauge = %d after the cut flushed the backlog, want 0", got)
	}
}

// TestFinishIsTerminal: a Finish that cannot decide returns the same
// error on every call — it never turns into a verdict — and a final
// window past the search cap is refused as cut-starved.
func TestFinishIsTerminal(t *testing.T) {
	overCap := model.NewBuilder()
	overCap.Raw(model.Read(1, 0), model.ValueResp(1, 0)) // p1 stays live
	for i := 0; i < 64; i++ {
		overCap.Read(2, 0, 0).Commit(2)
	}
	malformed := model.History{
		model.Read(1, 0), model.ValueResp(1, 0),
		model.OK(1), // answers no invocation
	}
	for _, tc := range []struct {
		name string
		h    model.History
		want error // nil: any error
	}{
		{"over-cap final window", overCap.History(), ErrNoQuiescentCut},
		{"malformed tail", malformed, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewStreamChecker(64)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range tc.h {
				if err := c.Feed(e); err != nil {
					t.Fatalf("feed %d: %v", i, err)
				}
			}
			_, first := c.Finish()
			if first == nil || tc.want != nil && !errors.Is(first, tc.want) {
				t.Fatalf("first Finish: %v, want %v", first, tc.want)
			}
			res, second := c.Finish()
			if second != first {
				t.Fatalf("second Finish: %+v, %v; want the first's error %v", res, second, first)
			}
			if err := c.Feed(model.Read(3, 0)); err != first {
				t.Fatalf("Feed after Finish: %v, want %v", err, first)
			}
		})
	}
}

// Segments returns the number of segments checked so far.
func (c *StreamChecker) Segments() int { return c.segments }

// ForcedCuts returns the number of forced serialization frontiers
// taken so far (always 0 without WithApproxFallback).
func (c *StreamChecker) ForcedCuts() int { return c.forced }

// Buffered returns the number of events currently buffered.
func (c *StreamChecker) Buffered() int { return len(c.buf) }
