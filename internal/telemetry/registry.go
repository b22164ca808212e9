package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// kind discriminates the three instrument types of a family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instrument inside a family. Exactly one of
// the three instrument pointers is non-nil, matching the family kind.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Label is one name/value pair attached to a series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// family is a named set of series sharing a kind, a help string, and
// a label-key schema.
type family struct {
	name   string
	help   string
	kind   kind
	keys   []string
	series []*series
	byKey  map[string]*series
}

// Registry holds named metric families. Instrument handles are
// resolved once (Counter/Gauge/Histogram panic on schema misuse, which
// is a wiring bug, not a runtime condition) and then used lock-free;
// the registry lock guards only resolution and snapshotting. A nil
// *Registry hands out bare instruments — working, at the same cost,
// but registered nowhere — and Unregister on it is a no-op, so a
// caller without a registry resolves its instruments the same way.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter resolves (creating on first use) the counter series of
// family name with the given alternating key, value label pairs. The
// first resolution of a name fixes its kind, help string, and label
// keys; later resolutions must match.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return &Counter{}
	}
	s := r.resolve(name, help, kindCounter, labels)
	return s.c
}

// Gauge resolves the gauge series of family name. See Counter.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	s := r.resolve(name, help, kindGauge, labels)
	return s.g
}

// Histogram resolves the histogram series of family name. See Counter.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	s := r.resolve(name, help, kindHistogram, labels)
	return s.h
}

func (r *Registry) resolve(name, help string, k kind, kvs []string) *series {
	if len(kvs)%2 != 0 {
		panic(fmt.Sprintf("telemetry: %s resolved with odd label list %q", name, kvs))
	}
	labels := make([]Label, 0, len(kvs)/2)
	for i := 0; i < len(kvs); i += 2 {
		labels = append(labels, Label{Key: kvs[i], Value: kvs[i+1]})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	keys := make([]string, len(labels))
	for i, l := range labels {
		keys[i] = l.Key
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: k, keys: keys, byKey: make(map[string]*series)}
		r.families[name] = fam
		r.order = append(r.order, name)
	} else {
		if fam.kind != k {
			panic(fmt.Sprintf("telemetry: %s resolved as %s, registered as %s", name, k, fam.kind))
		}
		if strings.Join(fam.keys, ",") != strings.Join(keys, ",") {
			panic(fmt.Sprintf("telemetry: %s resolved with label keys %v, registered with %v", name, keys, fam.keys))
		}
	}
	key := seriesKey(labels)
	if s := fam.byKey[key]; s != nil {
		return s
	}
	s := &series{labels: labels}
	switch k {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	default:
		s.h = &Histogram{}
	}
	fam.byKey[key] = s
	fam.series = append(fam.series, s)
	return s
}

// Unregister removes the series of family name with the given
// alternating key, value label pairs from the registry, reporting
// whether it was present. The family itself (name, kind, help, label
// schema) stays registered, so a later resolution with the same
// labels starts a fresh series at zero — per-series counter resets
// are the caller's contract to preserve monotonicity across (see
// internal/server's admission eviction, which folds retiring values
// into an aggregate series before unregistering). Handles already
// held on the removed series keep working; their updates are simply
// no longer exported.
func (r *Registry) Unregister(name string, kvs ...string) bool {
	if r == nil {
		return false
	}
	if len(kvs)%2 != 0 {
		panic(fmt.Sprintf("telemetry: %s unregistered with odd label list %q", name, kvs))
	}
	labels := make([]Label, 0, len(kvs)/2)
	for i := 0; i < len(kvs); i += 2 {
		labels = append(labels, Label{Key: kvs[i], Value: kvs[i+1]})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })

	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		return false
	}
	key := seriesKey(labels)
	s := fam.byKey[key]
	if s == nil {
		return false
	}
	delete(fam.byKey, key)
	for i, other := range fam.series {
		if other == s {
			fam.series = append(fam.series[:i], fam.series[i+1:]...)
			break
		}
	}
	return true
}

func seriesKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('\x00')
		b.WriteString(l.Value)
		b.WriteByte('\x00')
	}
	return b.String()
}
