package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"livetm/internal/model"
	"livetm/internal/monitor"
	"livetm/internal/native"
	"livetm/internal/record"
	"livetm/internal/safety"
	"livetm/internal/server"
)

// perLayer are the traced run's metrics: one layer each (layer =
// package under internal/), no bounds. A workload reports 0 for a
// layer its committed transactions never cross. README.md lists which
// end-to-end metric each one should move, and on which workload.
var perLayer = []metricDef{
	// The two caller-visible timings, unbounded here because they do not
	// hold a 10% bound on this box (see timings in main.go): measured on
	// the traced run's untraced trials.
	{Name: "untraced.commits_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.exec_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.exec_p50_us", Unit: "us", Better: "lower"},
	{Name: "native.ns_per_commit", Unit: "ns", Better: "lower"},
	{Name: "native.abort_ratio", Unit: "ratio", Better: "lower"},
	{Name: "native.allocs_per_commit", Unit: "count", Better: "lower"},
	{Name: "native.observed_ns_per_commit", Unit: "ns", Better: "lower"},
	{Name: "record.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "record.events_per_commit", Unit: "count", Better: "lower"},
	{Name: "record.chunks", Unit: "count", Better: "lower"},
	{Name: "record.reseq_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "safety.check_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "safety.segments", Unit: "count", Better: "higher"},
	{Name: "safety.forced_cuts", Unit: "count", Better: "lower"},
	{Name: "safety.relaxed_straddlers", Unit: "count", Better: "lower"},
	{Name: "safety.allocs_per_commit", Unit: "count", Better: "lower"},
	{Name: "safety.alloc_bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "monitor.observe_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "monitor.report_ms", Unit: "ms", Better: "lower"},
	{Name: "monitor.approx_share", Unit: "ratio", Better: "lower"},
	{Name: "model.decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "model.trace_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "engine.exec_self_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.open_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.close_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.cut_count", Unit: "count", Better: "lower"},
	{Name: "engine.cut_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.cut_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.aborts_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "engine.exec_p99_us", Unit: "us", Better: "lower"},
	{Name: "engine.record_delta_ns_per_commit", Unit: "ns", Better: "lower"},
	{Name: "engine.live_delta_ns_per_commit", Unit: "ns", Better: "lower"},
	{Name: "server.handler_self_ns", Unit: "ns", Better: "lower"},
	{Name: "server.codec_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "server.refused", Unit: "count", Better: "lower"},
	{Name: "server.bytes_in_per_req", Unit: "B", Better: "lower"},
	{Name: "server.bytes_out_per_req", Unit: "B", Better: "lower"},
	{Name: "client.exec_self_us", Unit: "us", Better: "lower"},
	{Name: "client.exec_p50_us.read", Unit: "us", Better: "lower"},
	{Name: "client.exec_p50_us.update", Unit: "us", Better: "lower"},
	{Name: "client.exec_p99_us.read", Unit: "us", Better: "lower"},
	{Name: "client.exec_p99_us.update", Unit: "us", Better: "lower"},
	{Name: "client.retries", Unit: "count", Better: "lower"},
	// share.<layer> is the layer's share of one committed transaction's
	// time on this workload; the shares of one workload sum to 1.
	{Name: "share.native", Unit: "ratio", Better: "lower"},
	{Name: "share.record", Unit: "ratio", Better: "lower"},
	{Name: "share.safety", Unit: "ratio", Better: "lower"},
	{Name: "share.monitor", Unit: "ratio", Better: "lower"},
	{Name: "share.model", Unit: "ratio", Better: "lower"},
	{Name: "share.engine", Unit: "ratio", Better: "lower"},
	{Name: "share.server", Unit: "ratio", Better: "lower"},
	{Name: "share.client", Unit: "ratio", Better: "lower"},
	// trace.overhead_ratio is untraced ÷ traced commits_per_s.
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// layerCtx accumulates one workload's traced run: every repetition
// puts one sample per metric, and the reported value is their median.
type layerCtx struct {
	w       *workload
	seed    uint64
	outDir  string
	samples map[string][]float64
	out     *outcome
	// last is the latest traced trial's tracer, written to the
	// workload's trace file when the run ends.
	last *tracer
}

func newLayerCtx(w *workload, seed uint64, outDir string) *layerCtx {
	return &layerCtx{w: w, seed: seed, outDir: outDir, samples: map[string][]float64{},
		out: &outcome{values: map[string]float64{}}}
}

func (lc *layerCtx) put(name string, v float64) {
	lc.samples[name] = append(lc.samples[name], v)
}

// cfg is the configuration of one trial of the repetition, traced or not.
func (lc *layerCtx) cfg(traced bool) trialCfg {
	c := trialCfg{seed: lc.seed, size: lc.w.traced, outDir: lc.outDir}
	if traced {
		perLane := lc.w.traced.ops + lc.w.traced.ops/4 + 16 // headroom for retried attempts
		c.tr = newTracer(lc.w.levels, drivers, perLane)
		lc.last = c.tr
	}
	return c
}

// fail counts a failed check of the ladder itself.
func (lc *layerCtx) fail(format string, args ...any) {
	lc.out.failed++
	lc.out.problems = append(lc.out.problems, fmt.Sprintf(format, args...))
}

// took counts a trial's operations and failed checks into the run.
func (lc *layerCtx) took(r trialResult) trialResult {
	lc.out.attempted += r.attempted
	lc.out.failed += r.failed
	lc.out.problems = append(lc.out.problems, r.problems...)
	return r
}

// spans folds the latest traced trial and reports the tracing figures
// every workload shares.
func (lc *layerCtx) spans(untraced, traced trialResult) selfTimes {
	st := lc.last.selfTimes()
	lc.put("trace.overhead_ratio", cps(untraced)/cps(traced))
	lc.put("untraced.commits_per_s", cps(untraced))
	if st.orphans > 0 {
		lc.fail("%s: %d spans have no parent", lc.w.name, st.orphans)
	}
	return st
}

func cps(r trialResult) float64 { return float64(max(r.commits, 1)) / r.window.Seconds() }

// wallNS is the window's wall time per committed transaction.
func wallNS(r trialResult) float64 {
	return float64(r.window.Nanoseconds()) / float64(max(r.commits, 1))
}

// runTraced makes the traced run of one workload: repetitions of its
// ladder until the seconds budget is spent (at least three), the
// per-layer medians, and the last traced trial's spans on disk.
func runTraced(w *workload, seed uint64, seconds float64, outDir string, prov provenance) (*outcome, error) {
	lc := newLayerCtx(w, seed, outDir)
	start := time.Now()
	for rep := 0; rep < 3 || time.Since(start).Seconds() < seconds; rep++ {
		w.layers(lc)
		lc.out.trials++
		fmt.Printf("# %s traced repetition %d done at %.1fs\n", w.name, rep+1, time.Since(start).Seconds())
	}
	for _, m := range perLayer {
		lc.out.values[m.Name] = summarize(lc.samples[m.Name]).Median // 0 for a layer never crossed
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	prov.Trials = map[string]int{w.name: lc.out.trials}
	if err := lc.last.write(filepath.Join(outDir, "trace-"+w.name+".jsonl"), w.name, prov); err != nil {
		return nil, err
	}
	return lc.out, nil
}

// approxShare is one repetition's sample of monitor.approx_share.
func approxShare(rep *monitor.Report) float64 {
	if rep != nil && rep.Opacity.Approx {
		return 1
	}
	return 0
}

// noopObserver is the +Observer rung: the hooks fire, nothing listens.
type noopObserver struct{}

func (noopObserver) ReadInv(int)                    {}
func (noopObserver) ReadReturn(int, int64, bool)    {}
func (noopObserver) WriteInv(int, int64)            {}
func (noopObserver) WriteReturn(int, int64, bool)   {}
func (noopObserver) TryCommitInv()                  {}
func (noopObserver) TryCommitReturn(committed bool) {}
func (noopObserver) Abandon()                       {}

func noopObservers() []native.Observer {
	obs := make([]native.Observer, drivers)
	for d := range obs {
		obs[d] = noopObserver{}
	}
	return obs
}

// nativeRungs runs the bare-TM rungs (plain, +no-op observer) on the
// given inputs and reports the native layer's metrics from them.
func nativeRungs(lc *layerCtx, in shape) (plain, observed trialResult) {
	plain = lc.took(trialDirect(lc.cfg(false), in, nil))
	observed = lc.took(trialDirect(lc.cfg(false), in, noopObservers()))
	lc.put("native.ns_per_commit", wallNS(plain))
	lc.put("native.observed_ns_per_commit", wallNS(observed))
	lc.put("native.abort_ratio", plain.tmStats.AbortRate())
	lc.put("native.allocs_per_commit", float64(plain.allocs)/float64(max(plain.commits, 1)))
	return plain, observed
}

// layersDirect: everything tm-direct does is internal/native.
func layersDirect(lc *layerCtx) {
	in := directShape(lc.w.traced)
	plain, _ := nativeRungs(lc, in)
	traced := lc.took(trialDirect(lc.cfg(true), in, nil))
	st := lc.spans(plain, traced)
	lc.put("share.native", st.layerShare("native"))
}

// checkAlone feeds a history to the streaming checker with nothing
// around it — the safety rung — and reports the safety metrics.
func checkAlone(lc *layerCtx, h model.History, commits int) (ns float64) {
	sc, err := safety.NewStreamChecker(replaySegmentTxns)
	if err != nil {
		lc.fail("safety rung: %v", err)
		return 0
	}
	sc.WithApproxFallback()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var feedErr error
	for _, e := range h {
		if feedErr = sc.Feed(e); feedErr != nil {
			break
		}
	}
	res, finErr := sc.Finish()
	ns = float64(time.Since(start).Nanoseconds())
	runtime.ReadMemStats(&after)
	if feedErr != nil || finErr != nil || !res.Holds {
		lc.fail("safety rung: feed=%v finish=%v holds=%v", feedErr, finErr, res.Holds)
	}
	events, c := float64(max(len(h), 1)), float64(max(commits, 1))
	lc.put("safety.check_ns_per_event", ns/events)
	lc.put("safety.segments", float64(res.Segments))
	lc.put("safety.forced_cuts", float64(res.ForcedCuts))
	lc.put("safety.relaxed_straddlers", float64(res.RelaxedStraddlers))
	lc.put("safety.allocs_per_commit", float64(after.Mallocs-before.Mallocs)/c)
	lc.put("safety.alloc_bytes_per_commit", float64(after.TotalAlloc-before.TotalAlloc)/c)
	return ns
}

// streamBatches cuts a recorded history into the per-process batches
// the recorder publishes on its live stream: at most 16 events, flushed
// when the process's transaction completes, ordered by publish time.
func streamBatches(h model.History) [][]record.Streamed {
	open := map[model.Proc][]record.Streamed{}
	var out [][]record.Streamed
	for i, e := range h {
		b := append(open[e.Proc], record.Streamed{Seq: uint64(i + 1), Ev: e})
		if len(b) == 16 || e.Kind == model.RespCommit || e.Kind == model.RespAbort {
			out, b = append(out, b), nil
		}
		open[e.Proc] = b
	}
	for _, b := range open {
		if len(b) > 0 {
			out = append(out, b)
		}
	}
	slices.SortFunc(out, func(a, b []record.Streamed) int {
		return int(a[len(a)-1].Seq) - int(b[len(b)-1].Seq)
	})
	return out
}

// layersSession climbs session-live's ladder on its own inputs: bare
// TM → +observer → +recorder → plain session → recorded session (with
// the live cut cadence) → live session, then replays the recorded
// history through resequencer, checker and monitor alone, because the
// asynchronous half of the live path cannot be spanned from outside.
func layersSession(lc *layerCtx) {
	in := sessionShape(lc.w.traced)
	direct, observed := nativeRungs(lc, in)

	rec := record.New(drivers, 1024)
	logs := make([]native.Observer, drivers)
	for d := range logs {
		logs[d] = rec.Log(model.Proc(d + 1))
	}
	recorded := lc.took(trialDirect(lc.cfg(false), in, logs))
	size := lc.w.traced
	totalCommits := (size.warm + size.ops) * drivers
	windowEvents := float64(rec.Events()) * float64(size.ops) / float64(size.warm+size.ops)
	lc.put("record.ns_per_event", float64(recorded.window.Nanoseconds()-observed.window.Nanoseconds())/max(windowEvents, 1))
	lc.put("record.events_per_commit", float64(rec.Events())/float64(totalCommits))
	lc.put("record.chunks", float64(rec.Chunks()))

	plain := lc.took(trialSession(lc.cfg(false), sessionPlain))
	withRec := lc.took(trialSession(lc.cfg(false), sessionRecord))
	live := lc.took(trialSession(lc.cfg(false), sessionLive))
	traced := lc.took(trialSession(lc.cfg(true), sessionLive))
	st := lc.spans(live, traced)

	h := withRec.history
	events := float64(max(len(h), 1))
	histCommits := int(withRec.sessStats.Commits)
	batches := streamBatches(h)
	rs := record.NewResequencer()
	emitted := 0
	start := time.Now()
	for _, b := range batches {
		rs.Push(b, func(model.Event) { emitted++ })
	}
	reseqNS := float64(time.Since(start).Nanoseconds())
	if emitted != len(h) {
		lc.fail("resequencer rung: %d of %d events restored", emitted, len(h))
	}
	lc.put("record.reseq_ns_per_event", reseqNS/events)

	checkNS := checkAlone(lc, h, histCommits)
	m, err := monitor.New(monitor.Config{SegmentTxns: replaySegmentTxns, Approx: true, Procs: []model.Proc{1, 2}})
	var monNS, reportNS float64
	if err == nil {
		start = time.Now()
		err = m.ObserveHistory(h)
		reportStart := time.Now()
		rep := m.Report()
		monNS, reportNS = float64(time.Since(start).Nanoseconds()), float64(time.Since(reportStart).Nanoseconds())
		if err == nil && (!rep.Checked || !rep.Opacity.Holds) {
			err = fmt.Errorf("checked=%v holds=%v", rep.Checked, rep.Opacity.Holds)
		}
	}
	if err != nil {
		lc.fail("monitor rung: %v", err)
	}
	lc.put("monitor.observe_ns_per_event", max(monNS-checkNS, 0)/events)
	lc.put("monitor.report_ms", reportNS/1e6)
	lc.put("monitor.approx_share", approxShare(live.report))

	lc.put("engine.exec_self_ns", st.perRoot("engine.exec"))
	lc.put("engine.open_ms", float64(live.openNS)/1e6)
	lc.put("engine.close_ms", float64(live.closeNS)/1e6)
	lc.put("engine.cut_count", float64(live.sessStats.CutLatency.Count))
	lc.put("engine.cut_p50_ns", float64(live.sessStats.CutLatency.P50ns))
	lc.put("engine.cut_p99_ns", float64(live.sessStats.CutLatency.P99ns))
	lc.put("engine.aborts_per_commit", float64(live.sessStats.Aborts)/float64(max(live.commits, 1)))
	liveLat := pooledLatency(live.lat)
	lc.put("engine.exec_p50_us", percentile(liveLat, 50)/1e3)
	lc.put("engine.exec_p99_us", percentile(liveLat, 99)/1e3)
	lc.put("engine.record_delta_ns_per_commit", wallNS(withRec)-wallNS(plain))
	lc.put("engine.live_delta_ns_per_commit", wallNS(live)-wallNS(withRec))

	// Shares of the live window's wall time per commit. The rungs nest,
	// so the deltas telescope to the live figure; the live delta is
	// split between resequencer, checker and monitor in the proportion
	// their offline replays cost.
	liveDelta := max(wallNS(live)-wallNS(withRec), 0)
	offline := max(reseqNS+max(monNS, checkNS), 1)
	parts := map[string]float64{
		"share.native":  wallNS(direct),
		"share.engine":  max(wallNS(plain)-wallNS(direct), 0),
		"share.record":  max(wallNS(withRec)-wallNS(plain), 0) + liveDelta*reseqNS/offline,
		"share.safety":  liveDelta * min(checkNS, monNS) / offline,
		"share.monitor": liveDelta * max(monNS-checkNS, 0) / offline,
	}
	var total float64
	for _, ns := range parts {
		total += ns
	}
	for name, ns := range parts {
		lc.put(name, ns/total)
	}
}

// layersReplay: the replay's own spans split decode from monitor, and
// the checker alone on the same history splits safety from monitor.
func layersReplay(lc *layerCtx) {
	untraced := lc.took(lc.w.trial(lc.cfg(false)))
	traced := lc.took(lc.w.trial(lc.cfg(true)))
	st := lc.spans(untraced, traced)
	h, err := model.ReadTrace(bytes.NewReader(untraced.trace))
	if err != nil {
		lc.fail("check-replay: decode for the safety rung: %v", err)
		return
	}
	events := float64(max(len(h), 1))
	checkNS := checkAlone(lc, h, untraced.commits)
	monNS := float64(st.self["monitor.observe"] + st.self["monitor.report"])
	lc.put("model.decode_ns_per_event", float64(st.self["model.decode"])/events)
	lc.put("model.trace_bytes_per_event", float64(len(untraced.trace))/events)
	lc.put("monitor.observe_ns_per_event", max(monNS-checkNS, 0)/events)
	lc.put("monitor.report_ms", float64(st.self["monitor.report"])/1e6)
	lc.put("monitor.approx_share", approxShare(traced.report))
	root := float64(max(st.rootNS, 1))
	lc.put("share.model", float64(st.self["model.decode"])/root)
	lc.put("share.safety", min(checkNS, monNS)/root)
	lc.put("share.monitor", max(monNS-checkNS, 0)/root)
}

// layersWire: the four decorators span a request from the caller to
// the attempt, so every layer's share comes straight from the spans.
func layersWire(lc *layerCtx) {
	untraced := lc.took(trialWire(lc.cfg(false)))
	traced := lc.took(trialWire(lc.cfg(true)))
	st := lc.spans(untraced, traced)
	tr := lc.last

	lc.put("client.exec_self_us", (st.perRoot("client.exec")+st.perRoot("client.roundtrip"))/1e3)
	lc.put("server.handler_self_ns", st.perRoot("server.handler"))
	lc.put("engine.exec_self_ns", st.perRoot("engine.exec"))
	lc.put("native.ns_per_commit", st.perRoot("native.attempt"))
	lc.put("engine.aborts_per_commit", float64(untraced.sessStats.Aborts)/float64(max(untraced.sessStats.Commits, 1)))
	lc.put("engine.close_ms", float64(untraced.closeNS)/1e6)
	reqs := float64(max(tr.requests.Load(), 1))
	lc.put("server.refused", float64(tr.refused.Load()))
	lc.put("server.bytes_in_per_req", float64(tr.bytesIn.Load())/reqs)
	lc.put("server.bytes_out_per_req", float64(tr.bytesOut.Load())/reqs)
	lc.put("server.codec_ns_per_req", codecAlone(lc, untraced.pools[0]))
	// Round trips beyond one per Exec, counted where both cross the
	// decorators: the harness itself never retries a failed request.
	lc.put("client.retries", float64(st.count["client.roundtrip"]-st.count["client.exec"]))

	lc.put("client.exec_p50_us", percentile(pooledLatency(untraced.lat), 50)/1e3)
	var reads, updates []float64
	size := lc.w.traced
	for d, lat := range untraced.lat {
		pool := untraced.pools[d]
		for i, ns := range lat {
			if len(pool[(size.warm+i)%len(pool)].incrs) == 0 {
				reads = append(reads, ns)
			} else {
				updates = append(updates, ns)
			}
		}
	}
	slices.Sort(reads)
	slices.Sort(updates)
	lc.put("client.exec_p50_us.read", percentile(reads, 50)/1e3)
	lc.put("client.exec_p50_us.update", percentile(updates, 50)/1e3)
	lc.put("client.exec_p99_us.read", percentile(reads, 99)/1e3)
	lc.put("client.exec_p99_us.update", percentile(updates, 99)/1e3)

	for _, layer := range []string{"client", "server", "engine", "native"} {
		lc.put("share."+layer, st.layerShare(layer))
	}
}

// codecAlone calls JSONCodec directly on the frames one driver's
// programs cross the wire as: decode the request, encode the response.
func codecAlone(lc *layerCtx, pool []program) float64 {
	codec := server.JSONCodec{}
	n := min(len(pool), lc.w.traced.ops)
	frames := make([][]byte, n)
	resps := make([]server.ExecResponse, n)
	for i := range frames {
		var buf bytes.Buffer
		ops := pool[i].ops()
		if err := codec.Encode(&buf, server.ExecRequest{Worker: 0, Ops: ops}); err != nil {
			lc.fail("codec rung: %v", err)
			return 0
		}
		frames[i] = buf.Bytes()
		resps[i] = server.ExecResponse{Committed: true, Reads: make([]int64, len(ops))}
	}
	bad := 0
	start := time.Now()
	for i, f := range frames {
		var req server.ExecRequest
		if err := codec.Decode(bytes.NewReader(f), &req); err != nil || len(req.Ops) != len(resps[i].Reads) {
			bad++
		}
		if err := codec.Encode(io.Discard, resps[i]); err != nil {
			bad++
		}
	}
	ns := float64(time.Since(start).Nanoseconds())
	if bad > 0 {
		lc.fail("codec rung: %d frames failed to round-trip", bad)
	}
	return ns / float64(max(n, 1))
}
