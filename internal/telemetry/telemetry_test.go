package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIdxMonotoneAndInverse(t *testing.T) {
	// Every value maps into a bucket whose bounds contain it, indices
	// are monotone in the value, and the full range stays in bounds.
	vals := []uint64{0, 1, 2, 7, 8, 9, 10, 15, 16, 31, 32, 100, 1000, 1 << 20, 1<<40 + 12345, 1<<63 - 1, 1 << 63, ^uint64(0)}
	prev := -1
	for _, v := range vals {
		idx := bucketIdx(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range", v, idx)
		}
		if idx < prev {
			t.Fatalf("bucketIdx not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
		up := bucketUpper(idx)
		if v > up {
			t.Fatalf("value %d above its bucket upper bound %d (idx %d)", v, up, idx)
		}
		if idx > 0 {
			lo := bucketUpper(idx-1) + 1
			if v < lo {
				t.Fatalf("value %d below its bucket lower bound %d (idx %d)", v, lo, idx)
			}
		}
	}
	// Exhaustive monotonicity + containment over small values and
	// octave edges.
	prev = 0
	for v := uint64(0); v < 1<<12; v++ {
		idx := bucketIdx(v)
		if idx < prev {
			t.Fatalf("bucketIdx not monotone at %d", v)
		}
		prev = idx
	}
	for e := 3; e < 63; e++ {
		for _, v := range []uint64{1 << e, 1<<e + 1, 1<<(e+1) - 1} {
			idx := bucketIdx(v)
			if up := bucketUpper(idx); v > up {
				t.Fatalf("edge %d (e=%d) above bucket upper %d", v, e, up)
			}
			_ = bits.Len64(v)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("Count = %d, want 1000", got)
	}
	// Quantiles are bucket upper bounds: within one sub-bucket (25%
	// relative) of the exact rank statistic.
	p50 := h.Quantile(0.50)
	if p50 < 500 || p50 > 640 {
		t.Fatalf("p50 = %d, want ~500 (within bucket width)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 990 || p99 > 1280 {
		t.Fatalf("p99 = %d, want ~990 (within bucket width)", p99)
	}
	if q := h.Quantile(0); q < 1 || q > 2 {
		t.Fatalf("q0 = %d, want bucket of min sample", q)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile should be 0")
	}
	empty.Observe(-5)
	if empty.Quantile(1) != 0 {
		t.Fatalf("negative samples clamp to 0")
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("livetm_test_total", "help", "algo", "tl2")
	b := r.Counter("livetm_test_total", "help", "algo", "tl2")
	if a != b {
		t.Fatalf("same name+labels must resolve to the same handle")
	}
	c := r.Counter("livetm_test_total", "help", "algo", "norec")
	if a == c {
		t.Fatalf("distinct label values must resolve to distinct handles")
	}
	a.Add(3)
	c.Inc()
	snap := r.Snapshot()
	if v, ok := snap.Value("livetm_test_total", "algo", "tl2"); !ok || v != 3 {
		t.Fatalf("Value(tl2) = %v, %v; want 3, true", v, ok)
	}
	if got := snap.Total("livetm_test_total"); got != 4 {
		t.Fatalf("Total = %v, want 4", got)
	}
}

func TestRegistryUnregister(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("livetm_test_total", "help", "client", "eph-1")
	keep := r.Counter("livetm_test_total", "help", "client", "keep")
	a.Add(5)
	keep.Add(2)

	if !r.Unregister("livetm_test_total", "client", "eph-1") {
		t.Fatalf("Unregister of a live series must report true")
	}
	if r.Unregister("livetm_test_total", "client", "eph-1") {
		t.Fatalf("second Unregister of the same series must report false")
	}
	if r.Unregister("livetm_missing_total", "client", "eph-1") {
		t.Fatalf("Unregister of an unknown family must report false")
	}

	snap := r.Snapshot()
	if _, ok := snap.Value("livetm_test_total", "client", "eph-1"); ok {
		t.Fatalf("unregistered series still exported")
	}
	if v, ok := snap.Value("livetm_test_total", "client", "keep"); !ok || v != 2 {
		t.Fatalf("surviving series = %v, %v; want 2, true", v, ok)
	}

	// The family schema survives: re-resolving the same labels starts a
	// fresh series at zero, distinct from the retired handle.
	b := r.Counter("livetm_test_total", "help", "client", "eph-1")
	if b == a {
		t.Fatalf("re-resolved series must be a fresh handle")
	}
	if v, ok := r.Snapshot().Value("livetm_test_total", "client", "eph-1"); !ok || v != 0 {
		t.Fatalf("re-resolved series = %v, %v; want 0, true", v, ok)
	}
}

// TestNilRegistryHandsOutBareInstruments: a nil registry resolves
// working instruments that are registered nowhere, a fresh one per
// call, and unregisters nothing.
func TestNilRegistryHandsOutBareInstruments(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("livetm_test_total", "help"), r.Gauge("livetm_test", "help", "k", "v"), r.Histogram("livetm_test_ns", "help")
	c.Add(3)
	g.Set(-2)
	h.Observe(100)
	if c.Load() != 3 || g.Load() != -2 || h.Count() != 1 {
		t.Fatalf("bare instruments read %d, %d, %d; want 3, -2, 1", c.Load(), g.Load(), h.Count())
	}
	if r.Counter("livetm_test_total", "help") == c {
		t.Fatal("a nil registry must not share instruments between resolutions")
	}
	if r.Unregister("livetm_test_total") {
		t.Fatal("Unregister on a nil registry must report false")
	}
}

func TestRegistrySchemaMisusePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("livetm_x_total", "h")
	for _, tc := range []func(){
		func() { r.Gauge("livetm_x_total", "h") },
		func() { r.Counter("livetm_x_total", "h", "k", "v") },
		func() { r.Counter("livetm_y_total", "h", "odd") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("schema misuse must panic")
				}
			}()
			tc()
		}()
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("livetm_tx_commits_total", "committed transactions", "algo", "native-tl2").Add(7)
	r.Gauge("livetm_session_workers", "active workers").Set(4)
	h := r.Histogram("livetm_exec_latency_ns", "Exec latency", "algo", "native-tl2")
	h.Observe(5)
	h.Observe(100)
	h.Observe(100)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE livetm_tx_commits_total counter",
		`livetm_tx_commits_total{algo="native-tl2"} 7`,
		"# TYPE livetm_session_workers gauge",
		"livetm_session_workers 4",
		"# TYPE livetm_exec_latency_ns histogram",
		`livetm_exec_latency_ns_bucket{algo="native-tl2",le="5"} 1`,
		`livetm_exec_latency_ns_bucket{algo="native-tl2",le="+Inf"} 3`,
		`livetm_exec_latency_ns_count{algo="native-tl2"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts: the 100-bucket line must carry 3
	// (1 from value 5, 2 from value 100).
	idx := bucketIdx(100)
	line := fmt.Sprintf(`livetm_exec_latency_ns_bucket{algo="native-tl2",le="%d"} 3`, bucketUpper(idx))
	if !strings.Contains(out, line) {
		t.Fatalf("exposition missing cumulative line %q:\n%s", line, out)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("livetm_tx_starts_total", "started transactions").Add(2)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String(), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.Contains(ct, "text/plain") || !strings.Contains(body, "livetm_tx_starts_total 2") {
		t.Fatalf("/metrics: ct=%q body=%q", ct, body)
	}
	body, ct = get("/snapshot")
	if !strings.Contains(ct, "application/json") {
		t.Fatalf("/snapshot content type %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot is not JSON: %v", err)
	}
	if v, ok := snap.Value("livetm_tx_starts_total"); !ok || v != 2 {
		t.Fatalf("snapshot value = %v, %v", v, ok)
	}
	if body, _ = get("/debug/pprof/cmdline"); body == "" {
		t.Fatalf("pprof cmdline endpoint empty")
	}
}

func TestSnapshotUnderConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("livetm_race_total", "h")
	h := r.Histogram("livetm_race_ns", "h")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(i % 4096)
				}
			}
		}()
	}
	var last float64
	for i := 0; i < 50; i++ {
		snap := r.Snapshot()
		v, _ := snap.Value("livetm_race_total")
		if v < last {
			t.Fatalf("counter regressed across snapshots: %v < %v", v, last)
		}
		last = v
	}
	close(stop)
	wg.Wait()
}

func TestFlightRecorder(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("livetm_flight_total", "h")
	var buf syncBuffer
	fr := NewFlightRecorder(r, &buf, 10*time.Millisecond)
	fr.Start()
	fr.Start() // idempotent
	c.Add(5)
	time.Sleep(35 * time.Millisecond)
	fr.Stop()
	fr.Stop() // idempotent

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("want >= 2 flight records, got %d", len(lines))
	}
	var rec FlightRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("flight line is not JSON: %v", err)
	}
	if v, ok := rec.Snapshot.Value("livetm_flight_total"); !ok || v != 5 {
		t.Fatalf("flight snapshot value = %v, %v; want 5", v, ok)
	}
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		v := int64(17)
		for pb.Next() {
			h.Observe(v)
			v = v*1664525 + 1013904223
			if v < 0 {
				v = -v
			}
		}
	})
}

// Total sums Value across all series of family name (0 if absent).
func (s Snapshot) Total(name string) float64 {
	f := s.Family(name)
	if f == nil {
		return 0
	}
	var t float64
	for _, ser := range f.Series {
		t += ser.Value
	}
	return t
}
