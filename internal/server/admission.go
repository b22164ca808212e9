package server

import (
	"sync"
	"time"

	"livetm/internal/engine"
	"livetm/internal/telemetry"
)

// evictedClient labels the aggregate series that absorbs the final
// counter values of evicted clients, so family totals stay monotone
// across evictions even though per-client series come and go.
const evictedClient = "(evicted)"

// admission is the server's slot accountant. Every submission —
// blocking exec, async submit, interactive transaction — holds one
// slot from acceptance to completion. Two limits apply at acquire
// time: the global cap (max, 0 = unbounded), and each client's fair
// share of it, recomputed against the set of currently-active clients
// so a flooding client hits its share while a light one is still
// admitted. Refusal is immediate and never blocks: the caller turns
// it into ErrOverloaded / HTTP 429 with a Retry-After hint.
//
// Per-client accounts are evicted once they have been idle (zero in
// flight, no acquire attempts) for idleAfter, bounding both the
// clients map and the telemetry registry under workloads with
// ephemeral client names; the retiring counters are folded into a
// client="(evicted)" aggregate first, so registry family totals stay
// monotone. A release with no matching account (or none in flight) is
// a protocol anomaly, counted rather than silently dropped.
type admission struct {
	mu        sync.Mutex
	max       int
	total     int
	clients   map[string]*clientSlots
	reg       *telemetry.Registry
	idleAfter time.Duration
	lastSweep time.Time
	now       func() time.Time // injectable clock for eviction tests

	cUnknown    *telemetry.Counter // releases with no matching acquire
	cEvicted    *telemetry.Counter // client accounts evicted as idle
	evRejected  *telemetry.Counter // fold target for evicted rejected counts
	evRetryHint *telemetry.Counter // fold target for evicted retry hints
}

// clientSlots is one client's admission account and its per-client
// instrument handles. The handles are bare instruments when the
// server has no registry (the sessionMetrics convention), so the
// accounting path carries no nil checks.
type clientSlots struct {
	inflight   int
	idleAt     time.Time // last acquire attempt or drop to zero in flight
	gInflight  *telemetry.Gauge
	cRejected  *telemetry.Counter
	cRetryHint *telemetry.Counter
}

// newAdmission builds the accountant. idleAfter <= 0 disables
// eviction (callers resolve the default; see Config.ClientIdleAfter).
func newAdmission(max int, idleAfter time.Duration, reg *telemetry.Registry) *admission {
	a := &admission{
		max:       max,
		clients:   make(map[string]*clientSlots),
		reg:       reg,
		idleAfter: idleAfter,
		now:       time.Now,
	}
	if reg != nil {
		a.cUnknown = reg.Counter("livetm_server_release_unknown_total",
			"Slot releases with no matching admitted client (protocol anomaly)")
		a.cEvicted = reg.Counter("livetm_server_clients_evicted_total",
			"Idle client admission accounts evicted")
		a.evRejected = reg.Counter("livetm_server_rejected_total",
			"Submissions refused by admission control per client", "client", evictedClient)
		a.evRetryHint = reg.Counter("livetm_server_retry_after_total",
			"Retry-After hints issued per client", "client", evictedClient)
	} else {
		a.cUnknown = &telemetry.Counter{}
		a.cEvicted = &telemetry.Counter{}
		a.evRejected = &telemetry.Counter{}
		a.evRetryHint = &telemetry.Counter{}
	}
	return a
}

// slotsFor resolves (or fabricates, registry-free) the client's
// account. Callers hold a.mu. The client label is client-supplied by
// design (per-client fairness needs per-client series); the space is
// bounded at runtime by idle eviction — sweep() unregisters series for
// clients idle past ClientIdleAfter and folds their counters into the
// "(evicted)" aggregate, which is the leak fix the telemetrylabel rule
// exists to guard, hence the allowance below.
//
//lint:allow(telemetrylabel) client label is bounded at runtime by idle eviction (sweep folds retired series into "(evicted)")
func (a *admission) slotsFor(client string) *clientSlots {
	cs := a.clients[client]
	if cs == nil {
		cs = &clientSlots{}
		if a.reg != nil {
			cs.gInflight = a.reg.Gauge("livetm_server_inflight",
				"Admitted submissions currently in flight per client", "client", client)
			cs.cRejected = a.reg.Counter("livetm_server_rejected_total",
				"Submissions refused by admission control per client", "client", client)
			cs.cRetryHint = a.reg.Counter("livetm_server_retry_after_total",
				"Retry-After hints issued per client", "client", client)
		} else {
			cs.gInflight = &telemetry.Gauge{}
			cs.cRejected = &telemetry.Counter{}
			cs.cRetryHint = &telemetry.Counter{}
		}
		a.clients[client] = cs
	}
	return cs
}

// acquire takes one slot for client, or refuses with ErrOverloaded.
// The fair share is ceil(max / active) where active counts every
// client with work in flight plus the requester itself; with max 0
// admission is unbounded and only the engine's own MaxQueue pushes
// back.
func (a *admission) acquire(client string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sweep()
	cs := a.slotsFor(client)
	cs.idleAt = a.now()
	if a.max > 0 {
		refuse := a.total >= a.max
		if !refuse {
			active := 1 // the requester
			for _, other := range a.clients {
				if other != cs && other.inflight > 0 {
					active++
				}
			}
			share := (a.max + active - 1) / active
			refuse = cs.inflight >= share
		}
		if refuse {
			cs.cRejected.Inc()
			cs.cRetryHint.Inc()
			return engine.ErrOverloaded
		}
	}
	cs.inflight++
	a.total++
	cs.gInflight.Set(int64(cs.inflight))
	return nil
}

// release returns client's slot. A release for a client that holds no
// slot — unknown name, already evicted, or more releases than
// acquires — is counted as an anomaly instead of silently ignored.
func (a *admission) release(client string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cs := a.clients[client]
	if cs == nil || cs.inflight == 0 {
		a.cUnknown.Inc()
		return
	}
	cs.inflight--
	a.total--
	cs.gInflight.Set(int64(cs.inflight))
	if cs.inflight == 0 {
		cs.idleAt = a.now()
	}
	a.sweep()
}

// sweep evicts every account that has sat at zero in flight for at
// least idleAfter, amortized to run at most once per idleAfter/4.
// Final rejected/retry-hint counts fold into the "(evicted)" aggregate
// before the per-client series leave the registry, so family totals
// never step backward; a client that reappears later gets a fresh
// account (its per-series counters restart at zero, the standard
// reset semantics of a series that was retired). Callers hold a.mu.
func (a *admission) sweep() {
	if a.idleAfter <= 0 {
		return
	}
	n := a.now()
	if n.Sub(a.lastSweep) < a.idleAfter/4 {
		return
	}
	a.lastSweep = n
	for name, cs := range a.clients {
		if cs.inflight != 0 || n.Sub(cs.idleAt) < a.idleAfter {
			continue
		}
		a.evRejected.Add(cs.cRejected.Load())
		a.evRetryHint.Add(cs.cRetryHint.Load())
		if a.reg != nil {
			a.reg.Unregister("livetm_server_inflight", "client", name)
			a.reg.Unregister("livetm_server_rejected_total", "client", name)
			a.reg.Unregister("livetm_server_retry_after_total", "client", name)
		}
		delete(a.clients, name)
		a.cEvicted.Inc()
	}
}
