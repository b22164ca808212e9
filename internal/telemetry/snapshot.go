package telemetry

import "sort"

// SeriesSnapshot is one labeled series at a point in time. Counters
// and gauges carry Value; histograms carry Count, Sum (midpoint
// approximation), the quantile summaries, and the non-empty buckets.
type SeriesSnapshot struct {
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`

	Count   uint64           `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	P50     int64            `json:"p50,omitempty"`
	P99     int64            `json:"p99,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one non-empty histogram bucket: Count samples at
// or below Upper (inclusive), exclusive of lower buckets.
type BucketSnapshot struct {
	Upper uint64 `json:"le"`
	Count uint64 `json:"n"`
}

// Label returns the value of the label named key, or "".
func (s SeriesSnapshot) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// FamilySnapshot is one metric family at a point in time.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help"`
	Kind   string           `json:"kind"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot is a point-in-time copy of a registry, ordered by family
// name. It is the payload of the JSON endpoint and the flight
// recorder, and the source for livetm serve's progress lines.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// Snapshot captures every family. Each series is read once with
// atomic loads; no hot-path writer is blocked.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	// Series slices only ever append under r.mu; copy the headers so
	// the scan below runs without the lock.
	sers := make([][]*series, len(fams))
	for i, f := range fams {
		sers[i] = append([]*series(nil), f.series...)
	}
	r.mu.Unlock()

	snap := Snapshot{Families: make([]FamilySnapshot, 0, len(fams))}
	for i, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String()}
		for _, s := range sers[i] {
			ss := SeriesSnapshot{Labels: s.labels}
			switch {
			case s.c != nil:
				ss.Value = float64(s.c.Load())
			case s.g != nil:
				ss.Value = float64(s.g.Load())
			default:
				for b := 0; b < histBuckets; b++ {
					n := s.h.buckets[b].Load()
					if n > 0 {
						ss.Buckets = append(ss.Buckets, BucketSnapshot{Upper: bucketUpper(b), Count: n})
						ss.Count += n
					}
				}
				ss.Sum = s.h.sumApprox()
				ss.P50 = s.h.Quantile(0.50)
				ss.P99 = s.h.Quantile(0.99)
				ss.Value = float64(ss.Count)
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	sort.Slice(snap.Families, func(a, b int) bool { return snap.Families[a].Name < snap.Families[b].Name })
	return snap
}

// Family returns the named family, or nil.
func (s Snapshot) Family(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Value returns the value of the series of family name whose labels
// include every given key, value pair, and whether it exists.
func (s Snapshot) Value(name string, kvs ...string) (float64, bool) {
	f := s.Family(name)
	if f == nil {
		return 0, false
	}
outer:
	for _, ser := range f.Series {
		for i := 0; i < len(kvs); i += 2 {
			if ser.Label(kvs[i]) != kvs[i+1] {
				continue outer
			}
		}
		return ser.Value, true
	}
	return 0, false
}
