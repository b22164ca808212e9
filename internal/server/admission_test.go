package server

import (
	"fmt"
	"testing"
	"time"

	"livetm/internal/telemetry"
)

// TestAdmissionEvictsIdleClients drives 1000 ephemeral client names
// through the accountant and asserts both the clients map and the
// per-client telemetry series stay bounded — the leak this change
// fixes — while a long-lived client with work in flight is never
// evicted regardless of age.
func TestAdmissionEvictsIdleClients(t *testing.T) {
	reg := telemetry.NewRegistry()
	const idle = time.Second
	a := newAdmission(64, idle, reg)
	clock := time.Unix(1000, 0)
	a.now = func() time.Time { return clock }

	if err := a.acquire("resident"); err != nil {
		t.Fatalf("resident acquire: %v", err)
	}

	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("eph-%d", i)
		if err := a.acquire(name); err != nil {
			t.Fatalf("acquire %s: %v", name, err)
		}
		a.release(name)
		clock = clock.Add(10 * time.Millisecond)
	}
	// One last nudge well past the grace period so the final sweep can
	// collect the tail.
	clock = clock.Add(2 * idle)
	a.release("resident")
	if err := a.acquire("resident"); err != nil {
		t.Fatalf("resident reacquire: %v", err)
	}

	// Sweeps are amortized to one per idleAfter/4, so a bounded lag of
	// un-evicted accounts is expected; 1000 distinct names must not be.
	if n := a.clientCount(); n > 200 {
		t.Fatalf("clientCount = %d after 1000 ephemeral clients, want bounded (≤200)", n)
	}
	snap := reg.Snapshot()
	for _, fam := range []string{
		"livetm_server_inflight",
		"livetm_server_rejected_total",
		"livetm_server_retry_after_total",
	} {
		f := snap.Family(fam)
		if f == nil {
			t.Fatalf("family %s missing", fam)
		}
		if len(f.Series) > 201 {
			t.Fatalf("family %s has %d series, want bounded (≤201)", fam, len(f.Series))
		}
	}
	if v, _ := snap.Value("livetm_server_clients_evicted_total"); v < 800 {
		t.Fatalf("evicted counter = %v, want ≥ 800", v)
	}
	// The resident client survived every sweep with its slot intact.
	if v, ok := snap.Value("livetm_server_inflight", "client", "resident"); !ok || v != 1 {
		t.Fatalf("resident inflight = %v, %v; want 1, true", v, ok)
	}
	a.release("resident")
}

// TestAdmissionEvictionKeepsMonotoneCounters evicts a client that
// accumulated refusals, lets it reappear, and asserts the registry's
// family totals never step backward: the retiring per-client counts
// fold into the "(evicted)" aggregate, and the reincarnated client's
// fresh series only adds on top.
func TestAdmissionEvictionKeepsMonotoneCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	const idle = time.Second
	a := newAdmission(1, idle, reg)
	clock := time.Unix(1000, 0)
	a.now = func() time.Time { return clock }

	// "hog" takes the only slot; "victim" is refused twice.
	if err := a.acquire("hog"); err != nil {
		t.Fatalf("hog acquire: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := a.acquire("victim"); err == nil {
			t.Fatalf("victim acquire %d admitted past the cap", i)
		}
	}
	before := familyTotal(reg.Snapshot(), "livetm_server_rejected_total")
	if before != 2 {
		t.Fatalf("rejected total = %v, want 2", before)
	}

	// Idle the victim past the grace period and force a sweep.
	a.release("hog")
	clock = clock.Add(2 * idle)
	if err := a.acquire("sweeper"); err != nil {
		t.Fatalf("sweeper acquire: %v", err)
	}
	snap := reg.Snapshot()
	if _, ok := snap.Value("livetm_server_rejected_total", "client", "victim"); ok {
		t.Fatalf("victim series survived eviction")
	}
	if got := familyTotal(snap, "livetm_server_rejected_total"); got != before {
		t.Fatalf("rejected total after eviction = %v, want %v (monotone)", got, before)
	}
	if v, ok := snap.Value("livetm_server_rejected_total", "client", evictedClient); !ok || v != 2 {
		t.Fatalf("evicted aggregate = %v, %v; want 2, true", v, ok)
	}

	// The victim reappears: a fresh account, counted on top of the fold.
	if err := a.acquire("victim"); err == nil {
		t.Fatalf("reincarnated victim admitted past the cap")
	}
	if got := familyTotal(reg.Snapshot(), "livetm_server_rejected_total"); got != before+1 {
		t.Fatalf("rejected total after reappearance = %v, want %v", got, before+1)
	}
	a.release("sweeper")
}

// TestAdmissionUnknownReleaseCounted asserts a release with no
// matching acquire — unknown client, or double release — increments
// the anomaly counter instead of silently vanishing.
func TestAdmissionUnknownReleaseCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := newAdmission(4, -1, reg)

	a.release("ghost")
	if err := a.acquire("real"); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	a.release("real")
	a.release("real") // double release
	snap := reg.Snapshot()
	if v, _ := snap.Value("livetm_server_release_unknown_total"); v != 2 {
		t.Fatalf("unknown-release counter = %v, want 2", v)
	}
	if a.inflightTotal() != 0 {
		t.Fatalf("inflightTotal = %d, want 0", a.inflightTotal())
	}
}

// TestAdmissionNoEvictionWhenDisabled pins the negative-ClientIdleAfter
// contract: idleAfter <= 0 never evicts.
func TestAdmissionNoEvictionWhenDisabled(t *testing.T) {
	a := newAdmission(4, -1, nil)
	clock := time.Unix(1000, 0)
	a.now = func() time.Time { return clock }
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("c-%d", i)
		if err := a.acquire(name); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		a.release(name)
		clock = clock.Add(time.Hour)
	}
	if n := a.clientCount(); n != 10 {
		t.Fatalf("clientCount = %d with eviction disabled, want 10", n)
	}
}

// inflightTotal reports the slots currently held (drain watches this
// reach zero through the backend's own Drain, so this is diagnostic).
func (a *admission) inflightTotal() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// clientCount reports the tracked admission accounts (diagnostic; the
// eviction tests assert it stays bounded under ephemeral names).
func (a *admission) clientCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.clients)
}

// familyTotal sums every series of family name (0 if absent).
func familyTotal(s telemetry.Snapshot, name string) float64 {
	var t float64
	if f := s.Family(name); f != nil {
		for _, ser := range f.Series {
			t += ser.Value
		}
	}
	return t
}
