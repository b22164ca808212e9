// Package telemetry is the dependency-free metrics core behind the
// live observability of livetm: atomic counters, gauges, and fixed
// log-bucketed histograms, collected into a named Registry of labeled
// families and exposed as Prometheus text exposition, JSON snapshots,
// and an optional JSONL flight recorder.
//
// The package exists to make the paper's time-domain signals —
// starvation intervals, abort/commit dichotomies, liveness classes —
// visible while a run is in flight, not only in post-hoc Stats
// snapshots. Because the instruments sit on the transactional hot
// path, the design budget is strict:
//
//   - Counter and Gauge updates are exactly one atomic RMW.
//   - Histogram.Observe is exactly one atomic RMW: the value is mapped
//     to a fixed log-linear bucket (2 sub-bucket bits per octave, 252
//     buckets covering all of uint64) with pure integer arithmetic and
//     a single bucket increment. No count word, no sum word, no locks.
//   - Hot paths never touch the Registry. Handles are resolved once at
//     wiring time (session open, recorder construction) and held; the
//     Registry's mutex is only taken at resolve and snapshot time.
//
// The zero value of each instrument is ready to use, so layers that
// must keep their accounting alive even when telemetry is disabled
// (e.g. the engine's cut-pause histograms backing CutStats) can hold
// bare, unregistered instruments at identical cost.
//
// The overhead contract is enforced by BenchmarkTelemetryOverhead at
// the repo root (mirrored by the workload matrix's per-cell
// telemetry_overhead field): it asserts that full telemetry wiring
// keeps a native session's throughput within its budget ratio of the
// bare run, and CI fails on a breach.
package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is a
// valid, unregistered counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 level. The zero value is a valid,
// unregistered gauge.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram bucket layout: values 0..7 get exact unit buckets; every
// larger octave [2^e, 2^{e+1}) is split into 4 sub-buckets (2
// significant bits below the leading bit), giving a worst-case
// relative quantization error of 1/4 across the full uint64 range.
//
//	idx(v) = v                                  v < 8
//	       = 8 + (e-3)*4 + ((v>>(e-2)) & 3)     e = bits.Len64(v)-1
//
// e ranges 3..63, so idx tops out at 8 + 60*4 + 3 = 251.
const histBuckets = 8 + (64-3-1)*4 + 4 // 252

func bucketIdx(v uint64) int {
	if v < 8 {
		return int(v)
	}
	e := bits.Len64(v) - 1
	return 8 + (e-3)*4 + int((v>>(e-2))&3)
}

// bucketUpper is the inclusive upper bound of bucket idx.
func bucketUpper(idx int) uint64 {
	if idx < 8 {
		return uint64(idx)
	}
	e := 3 + (idx-8)/4
	sub := uint64((idx - 8) % 4)
	return (4+sub+1)<<(e-2) - 1
}

// Histogram is a fixed log-bucketed distribution of non-negative
// int64 samples (typically nanoseconds). Observe performs exactly one
// atomic increment; totals and quantiles are derived at snapshot time
// from the buckets alone. The zero value is a valid, unregistered
// histogram.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
}

// Observe records v (negative values clamp to 0) with a single atomic
// bucket increment.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIdx(uint64(v))].Add(1)
}

// Count returns the number of observations, summed from the buckets.
// Concurrent Observes may or may not be included; the result is a
// consistent lower bound of any later snapshot.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) of
// the observed samples: the upper edge of the bucket in which the
// quantile falls, exact to the 1/4 relative bucket width. It returns
// 0 when nothing has been observed.
func (h *Histogram) Quantile(q float64) int64 {
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i := range counts {
		cum += counts[i]
		if cum > rank {
			return int64(bucketUpper(i))
		}
	}
	return int64(bucketUpper(histBuckets - 1))
}

// sumApprox estimates the sum of observed samples from bucket
// midpoints (exact for the unit buckets 0..7).
func (h *Histogram) sumApprox() float64 {
	var s float64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		var mid float64
		if i < 8 {
			mid = float64(i)
		} else {
			upper := bucketUpper(i)
			lower := bucketUpper(i-1) + 1
			mid = float64(lower+upper) / 2
		}
		s += float64(n) * mid
	}
	return s
}
