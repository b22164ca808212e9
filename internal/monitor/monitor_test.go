package monitor

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"livetm/internal/model"
	"livetm/internal/safety"
)

// increments builds n sequential committed increments of variable 0
// by process p, starting from value v0.
func increments(b *model.Builder, p model.Proc, v0 model.Value, n int) model.Value {
	for i := 0; i < n; i++ {
		b.Read(p, 0, v0).Write(p, 0, v0+1).Commit(p)
		v0++
	}
	return v0
}

func TestMonitorCleanRun(t *testing.T) {
	m, err := New(Config{SegmentTxns: 4, TailWindow: 64})
	if err != nil {
		t.Fatal(err)
	}
	b := model.NewBuilder()
	v := increments(b, 1, 0, 10)
	v = increments(b, 2, v, 10)
	increments(b, 1, v, 10)
	if err := m.ObserveHistory(b.History()); err != nil {
		t.Fatal(err)
	}
	r := m.Report()
	if !r.Checked || !r.Opacity.Holds {
		t.Fatalf("clean run not opaque: %+v", r.Opacity)
	}
	if r.Opacity.Segments < 3 {
		t.Errorf("segments = %d, want streaming segmentation", r.Opacity.Segments)
	}
	if len(r.Procs) != 2 {
		t.Fatalf("procs = %d, want 2", len(r.Procs))
	}
	for _, p := range r.Procs {
		if p.Class != "progressing" && p.Class != "crashed" {
			// p2's commits may all sit before a small window; with 64
			// events of window both procs commit within it.
			t.Errorf("p%d class = %s", p.Proc, p.Class)
		}
	}
	if r.Procs[0].Commits != 20 || r.Procs[1].Commits != 10 {
		t.Errorf("commit counts = %d/%d, want 20/10", r.Procs[0].Commits, r.Procs[1].Commits)
	}
	for _, vd := range r.Verdicts {
		if !vd.Holds {
			t.Errorf("%s = false on a fully progressing run", vd.Property)
		}
	}
	if !strings.Contains(r.Format(), "opaque=true") {
		t.Errorf("Format lacks the opacity line:\n%s", r.Format())
	}
}

func TestMonitorViolationSurfacesOnline(t *testing.T) {
	m, err := New(Config{SegmentTxns: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := model.NewBuilder()
	v := increments(b, 1, 0, 6)
	b.Read(2, 0, 0).Commit(2) // stale: v committed values later
	increments(b, 1, v, 6)
	h := b.History()
	var obsErr error
	for _, e := range h {
		if obsErr = m.Observe(e); obsErr != nil {
			break
		}
	}
	if !errors.Is(obsErr, safety.ErrStreamNotOpaque) {
		t.Fatalf("err = %v, want ErrStreamNotOpaque", obsErr)
	}
	if m.Events() == len(h) {
		t.Error("violation only surfaced after the entire history")
	}
	r := m.Report()
	if !r.Checked || r.Opacity.Holds {
		t.Fatalf("report must carry the violation: %+v", r.Opacity)
	}
	if r.Opacity.Reason == "" {
		t.Error("violation must carry a reason")
	}
}

// TestMonitorClassification builds a run whose tail window exhibits
// every fault class of the paper's lattice: p1 progresses, p2 crashed
// before the window, p3 is parasitic (operations, never tryC), p4
// starves (keeps aborting).
func TestMonitorClassification(t *testing.T) {
	m, err := New(Config{SegmentTxns: 8, TailWindow: 24})
	if err != nil {
		t.Fatal(err)
	}
	b := model.NewBuilder()
	v := increments(b, 2, 0, 4) // p2 is active, then falls silent
	for i := 0; i < 6; i++ {
		v = increments(b, 1, v, 1)     // p1 commits
		b.Read(3, 1, 0)                // p3 reads, never tries to commit
		b.Read(4, 0, v).CommitAbort(4) // p4 tries and aborts
	}
	// p3's transaction stays live forever, so the safety half is
	// starved of quiescent cuts — the liveness half must keep
	// accounting regardless.
	if err := m.ObserveHistory(b.History()); !errors.Is(err, safety.ErrNoQuiescentCut) {
		t.Fatalf("err = %v, want ErrNoQuiescentCut (parasitic transaction never closes)", err)
	}
	r := m.Report()
	if r.Checked {
		t.Error("safety verdict must be undecided under a never-closing transaction")
	}
	want := map[model.Proc]string{1: "progressing", 2: "crashed", 3: "parasitic", 4: "starving"}
	for _, p := range r.Procs {
		if p.Class != want[p.Proc] {
			t.Errorf("p%d class = %s, want %s", p.Proc, p.Class, want[p.Proc])
		}
	}
	verdicts := map[string]bool{}
	for _, vd := range r.Verdicts {
		verdicts[vd.Property] = vd.Holds
	}
	// p4 is correct yet pending: local progress fails; p1 progresses:
	// global progress holds; nobody runs alone: solo holds vacuously.
	if verdicts["local progress"] {
		t.Error("local progress must fail with a starving process")
	}
	if !verdicts["global progress"] {
		t.Error("global progress must hold: p1 commits in the window")
	}
	if !verdicts["solo progress"] {
		t.Error("solo progress holds vacuously")
	}
}

func TestMonitorStarvationAccounting(t *testing.T) {
	m, err := New(Config{SegmentTxns: 8})
	if err != nil {
		t.Fatal(err)
	}
	b := model.NewBuilder()
	v := increments(b, 1, 0, 1) // p1 commits early (6 events)
	for i := 0; i < 10; i++ {   // then 40 events of p2 activity
		v = increments(b, 2, v, 1)
	}
	increments(b, 1, v, 1) // p1 commits again
	if err := m.ObserveHistory(b.History()); err != nil {
		t.Fatal(err)
	}
	r := m.Report()
	p1 := r.Procs[0]
	if p1.Proc != 1 || p1.Commits != 2 {
		t.Fatalf("p1 accounting off: %+v", p1)
	}
	// The gap between p1's two commits spans p2's 40 events plus p1's
	// own second transaction.
	if p1.MaxStarvation < 40 {
		t.Errorf("p1 MaxStarvation = %d, want >= 40", p1.MaxStarvation)
	}
	p2 := r.Procs[1]
	if p2.MaxStarvation >= p1.MaxStarvation {
		t.Errorf("p2 starved (%d) no less than p1 (%d)?", p2.MaxStarvation, p1.MaxStarvation)
	}
}

// TestMonitorCutStarvation: a run the streaming checker cannot cut is
// reported as undecided, not as a verdict.
func TestMonitorCutStarvation(t *testing.T) {
	m, err := New(Config{SegmentTxns: 2})
	if err != nil {
		t.Fatal(err)
	}
	var h model.History
	for p := model.Proc(1); p <= 5; p++ {
		h = append(h, model.Read(p, 0), model.ValueResp(p, 0))
	}
	for p := model.Proc(1); p <= 5; p++ {
		h = append(h, model.TryCommit(p), model.Commit(p))
	}
	err = m.ObserveHistory(h)
	if !errors.Is(err, safety.ErrNoQuiescentCut) {
		t.Fatalf("err = %v, want ErrNoQuiescentCut", err)
	}
	r := m.Report()
	if r.Checked {
		t.Fatal("cut-starved run must be reported as undecided")
	}
	if f := r.Format(); !strings.Contains(f, "opaque=undecided (") || strings.Contains(f, "opaque=false") {
		t.Errorf("Format must print the verdict as undecided, never as false:\n%s", f)
	}
	if len(r.Procs) != 5 {
		t.Errorf("progress accounting must still cover all procs: %d", len(r.Procs))
	}
}

func TestMonitorEmpty(t *testing.T) {
	m, err := New(Config{Procs: []model.Proc{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	r := m.Report()
	if !r.Checked || !r.Opacity.Holds {
		t.Errorf("empty run is trivially opaque: %+v", r.Opacity)
	}
	if len(r.Verdicts) != 0 {
		t.Errorf("no events: no lasso reading, got %v", r.Verdicts)
	}
	if len(r.Procs) != 2 {
		t.Errorf("declared procs must appear in the report: %d", len(r.Procs))
	}
}

// TestMonitorApproxFallback: with Approx the cut-starved run of
// TestMonitorClassification gets an explicit approximate verdict
// instead of being undecided.
func TestMonitorApproxFallback(t *testing.T) {
	m, err := New(Config{SegmentTxns: 2, Approx: true})
	if err != nil {
		t.Fatal(err)
	}
	b := model.NewBuilder()
	b.Raw(model.Read(3, 1), model.ValueResp(3, 0)) // stays open forever
	v := model.Value(0)
	for i := 0; i < 12; i++ {
		v = increments(b, 1, v, 1)
	}
	if err := m.ObserveHistory(b.History()); err != nil {
		t.Fatalf("approx monitor refused: %v", err)
	}
	r := m.Report()
	if !r.Checked {
		t.Fatalf("approx fallback must decide: %+v", r.Opacity)
	}
	if !r.Opacity.Holds || !r.Opacity.Approx || r.Opacity.ForcedCuts == 0 {
		t.Fatalf("want an approximate holding verdict, got %+v", r.Opacity)
	}
	if !strings.Contains(r.Format(), "approximate") {
		t.Errorf("Format must flag the approximate verdict:\n%s", r.Format())
	}
}

// TestMonitorStarvationNow: the instantaneous commit gap grows for a
// silent process and resets on a commit — the feedback signal for
// starvation-aware backoff.
func TestMonitorStarvationNow(t *testing.T) {
	m, err := New(Config{SegmentTxns: 8, Procs: []model.Proc{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	b := model.NewBuilder()
	v := increments(b, 1, 0, 4) // 24 events, p2 silent
	if err := m.ObserveHistory(b.History()); err != nil {
		t.Fatal(err)
	}
	now, after := make([]int, 2), make([]int, 2)
	m.StarvationNow(now)
	if now[1] != m.Events() {
		t.Errorf("silent p2 gap = %d, want %d", now[1], m.Events())
	}
	if now[0] >= now[1] {
		t.Errorf("committing p1 gap (%d) not below silent p2 (%d)", now[0], now[1])
	}
	b2 := model.NewBuilder()
	increments(b2, 2, v, 1)
	if err := m.ObserveHistory(b2.History()); err != nil {
		t.Fatal(err)
	}
	m.StarvationNow(after)
	if after[1] >= now[1] {
		t.Errorf("p2 gap did not reset on commit: %d -> %d", now[1], after[1])
	}
}

// TestReportLivenessClass: the class is the strongest holding verdict.
func TestReportLivenessClass(t *testing.T) {
	r := Report{Verdicts: []Verdict{
		{Property: "local progress", Holds: false},
		{Property: "2-progress", Holds: false},
		{Property: "global progress", Holds: true},
		{Property: "solo progress", Holds: true},
	}}
	if got := r.LivenessClass(); got != "global progress" {
		t.Errorf("class = %q, want %q", got, "global progress")
	}
	if got := (Report{}).LivenessClass(); got != "none" {
		t.Errorf("empty class = %q, want none", got)
	}
}

// Events returns the number of events observed so far.
func (m *Monitor) Events() int { return m.events }

// TestMonitorProcIDEdges: the monitor keeps each process's accounting
// at its id. An event whose process id is not positive (hand-built:
// decoding refuses it) reaches only the checker, which reports it as a
// malformed event — from Observe or from the report — while the other
// processes' accounting goes on; the largest id is accounted like any
// other; and a fixed process set with a non-positive id is refused.
func TestMonitorProcIDEdges(t *testing.T) {
	const malformed = "non-positive process id"
	cases := []struct {
		name   string
		h      model.History
		procs  []model.Proc // the accounted processes, in report order
		commit []uint64     // their commits
		bad    bool         // the report must be unchecked, for a malformed event
	}{
		{"commit by process 0", model.History{model.Read(1, 0), model.ValueResp(1, 0), model.Commit(0), model.TryCommit(1), model.Commit(1)},
			[]model.Proc{1}, []uint64{1}, true},
		{"invocation by process -2 last", model.History{model.TryCommit(1), model.Commit(1), model.Read(-2, 0)},
			[]model.Proc{1}, []uint64{1}, true},
		{"MaxProc and process 1", model.NewBuilder().Read(model.MaxProc, 0, 0).Write(1, 0, 1).Commit(1).Commit(model.MaxProc).History(),
			[]model.Proc{1, model.MaxProc}, []uint64{1, 1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := New(Config{SegmentTxns: 4})
			if err != nil {
				t.Fatal(err)
			}
			obsErr := m.ObserveHistory(c.h)
			r := m.Report()
			if r.Events != len(c.h) {
				t.Errorf("%d events reported, %d observed", r.Events, len(c.h))
			}
			if c.bad {
				if r.Checked || !strings.Contains(r.Opacity.Reason, malformed) {
					t.Errorf("checked=%v reason %q; want unchecked for a malformed event", r.Checked, r.Opacity.Reason)
				}
				if obsErr != nil && !strings.Contains(obsErr.Error(), malformed) {
					t.Errorf("Observe: %v", obsErr)
				}
			} else if obsErr != nil || !r.Checked || !r.Opacity.Holds {
				t.Errorf("Observe: %v; report %+v; want opaque", obsErr, r.Opacity)
			}
			if len(r.Procs) != len(c.procs) {
				t.Fatalf("%d processes reported, want %v", len(r.Procs), c.procs)
			}
			for i, p := range r.Procs {
				if p.Proc != c.procs[i] || p.Commits != c.commit[i] {
					t.Errorf("report row %d: p%d with %d commits, want p%d with %d", i, p.Proc, p.Commits, c.procs[i], c.commit[i])
				}
			}
			if l := m.lasso(); l != nil {
				for _, e := range slices.Concat(l.Prefix, l.Cycle) {
					if e.Proc < 1 {
						t.Errorf("the lasso reading holds %s", e)
					}
				}
			}
		})
	}
	if _, err := New(Config{Procs: []model.Proc{1, 0}}); err == nil {
		t.Error("a fixed process set with process 0 must be refused")
	}
}

// TestLivenessRank: every lattice name ranks above the next weaker one,
// strongest at len(lattice), and "none", the empty string and unknown
// names rank 0 — the order the liveness-class gauge and loadgen's
// MinLiveness gate both read.
func TestLivenessRank(t *testing.T) {
	for _, tc := range []struct {
		class string
		want  int
	}{
		{"local progress", 4},
		{"2-progress", 3},
		{"global progress", 2},
		{"solo progress", 1},
		{"none", 0},
		{"", 0},
		{"3-progress", 0},
		{"Local Progress", 0},
	} {
		if got := LivenessRank(tc.class); got != tc.want {
			t.Errorf("LivenessRank(%q) = %d, want %d", tc.class, got, tc.want)
		}
	}
	for i, prop := range lattice {
		if got, want := LivenessRank(prop.Name), len(lattice)-i; got != want {
			t.Errorf("lattice[%d] %q ranks %d, want %d", i, prop.Name, got, want)
		}
	}
}
