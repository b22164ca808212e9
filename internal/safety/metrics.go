package safety

import "livetm/internal/telemetry"

// LaneTelemetry is the push-style telemetry handle bundle of one
// checker lane. The lane counters (segments, forced frontiers, waived
// straddler reads) are plain ints owned by the lane's worker
// goroutine, so a scraper must never read them mid-run; instead the
// lane pushes every increment into these atomic instruments, which a
// snapshot can read at any moment without racing the worker. Buffered
// tracks the lane's current backlog in events — its lag behind the
// producers. Unset fields are replaced by bare (unregistered)
// instruments, so checker code carries no nil checks.
type LaneTelemetry struct {
	// Segments counts segments the lane has checked.
	Segments *telemetry.Counter
	// Forced counts forced serialization frontiers the lane took.
	Forced *telemetry.Counter
	// Relaxed counts straddler reads the lane waived.
	Relaxed *telemetry.Counter
	// Buffered is the lane's buffered-event backlog: exact after each
	// flush and forced flush, refreshed every 64 events in between.
	Buffered *telemetry.Gauge
}

func (t LaneTelemetry) orBare() LaneTelemetry {
	if t.Segments == nil {
		t.Segments = &telemetry.Counter{}
	}
	if t.Forced == nil {
		t.Forced = &telemetry.Counter{}
	}
	if t.Relaxed == nil {
		t.Relaxed = &telemetry.Counter{}
	}
	if t.Buffered == nil {
		t.Buffered = &telemetry.Gauge{}
	}
	return t
}
