package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sim"
)

// runConfig is what one invocation measures.
type runConfig struct {
	seed    int64
	seconds time.Duration
	cache   string
}

// minReps is the fewest repetitions of each kind a run makes, however long
// they take.
const minReps = 3

// prepare generates (or reuses) the run's trace, outside every timed window.
func (c runConfig) prepare(s spec) (string, int, error) {
	n := s.requests
	path, err := traceFile(filepath.Join(c.cache, "traces"), s, c.seed, n)
	return path, n, err
}

// fingerprints tracks the simulated fingerprint of a run's repetitions:
// the first successful one is the reference, and any repetition that
// errors or differs counts all its requests as failed.
type fingerprints struct {
	ref       uint64
	have      bool
	attempted int64
	failed    int64
	errs      []string
}

func (f *fingerprints) add(n int, fp uint64, err error) bool {
	f.attempted += int64(n)
	if err == nil && f.have && fp != f.ref {
		err = fmt.Errorf("simulated fingerprint %016x differs from the run's %016x", fp, f.ref)
	}
	if err != nil {
		f.failed += int64(n)
		f.errs = append(f.errs, err.Error())
		return false
	}
	if !f.have {
		f.ref, f.have = fp, true
	}
	return true
}

func (f *fingerprints) outcome() *outcome {
	o := &outcome{correct: f.failed == 0 && f.have, attempted: f.attempted, failed: f.failed}
	if f.have {
		o.notes = append(o.notes, fmt.Sprintf("fingerprint %016x", f.ref))
	}
	for _, e := range f.errs {
		o.notes = append(o.notes, "error: "+e)
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	return o
}

// measureEndToEnd repeats sim.Run until the run's time is up and reports
// the medians of the end-to-end metrics.
//
// Both times are the process's CPU time, not wall time: on a shared host
// other processes and guests take this machine's CPUs for stretches that
// come and go with their load, which lengthens the wall clock by an amount
// no change to the program can move but leaves the program's own CPU time
// nearly unchanged. The wall-clock throughput is printed beside the metrics
// and reported per layer as untraced.req_per_s.
func measureEndToEnd(s spec, c runConfig) (*outcome, error) {
	path, n, err := c.prepare(s)
	if err != nil {
		return nil, err
	}
	var fps fingerprints
	var cpuPerReq, reqPerS, setup, rss []float64
	deadline := time.Now().Add(c.seconds)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		u := runUntraced(s, path, n)
		if !fps.add(n, u.fp, u.err) {
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s rep %d: setup %.3fs (cpu %.3fs) replay %.3fs (cpu %.3fs) peak %.1f MiB\n",
			s.name, rep, u.setup.Seconds(), u.setupCPU.Seconds(), u.replay.Seconds(), u.replayCPU.Seconds(), float64(u.peak)/(1<<20))
		cpuPerReq = append(cpuPerReq, cpuMicrosPerReq(u, n))
		reqPerS = append(reqPerS, wallReqPerS(u, n))
		setup = append(setup, u.setupCPU.Seconds())
		rss = append(rss, float64(u.peak)/(1<<20))
	}
	o := fps.outcome()
	o.metrics = []metric{
		summarize("cpu_us_per_req", "us", cpuPerReq),
		summarize("setup_s", "s", setup),
		summarize("peak_rss_mb", "MiB", rss),
	}
	o.notes = append(o.notes,
		fmt.Sprintf("%d requests per repetition, %d warm-up", n, s.warmup(n)),
		fmt.Sprintf("wall-clock req_per_s median %.6g", summarize("", "", reqPerS).med))
	return o, nil
}

// cpuMicrosPerReq is the process CPU per trace request over the replay
// window: about the replay's wall time on the serial workloads, plus the
// parallel overhead on the sharded one.
func cpuMicrosPerReq(u untraced, n int) float64 {
	return float64(u.replayCPU.Nanoseconds()) / 1e3 / float64(n)
}

// wallReqPerS is the trace requests retired per wall second over the
// replay window.
func wallReqPerS(u untraced, n int) float64 {
	return float64(n) / u.replay.Seconds()
}

// measureLayers alternates sim.Run with traced replays until the run's time
// is up and reports the traced replays' per-layer medians. Every traced
// replay's fingerprint must equal sim.Run's.
func measureLayers(s spec, c runConfig) (*outcome, error) {
	path, n, err := c.prepare(s)
	if err != nil {
		return nil, err
	}
	var route routeStats
	if s.shards > 0 {
		if route, err = measureRouting(s, path); err != nil {
			return nil, err
		}
	}
	var fps fingerprints
	var plain []float64
	samples := map[string][]float64{}
	deadline := time.Now().Add(c.seconds)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		u := runUntraced(s, path, n)
		if fps.add(n, u.fp, u.err) {
			plain = append(plain, u.replay.Seconds())
			samples["untraced.req_per_s"] = append(samples["untraced.req_per_s"], wallReqPerS(u, n))
		}
		t, err := runTraced(s, path, n)
		var fp uint64
		if t != nil {
			fp = t.fp
		}
		if !fps.add(n, fp, err) {
			continue
		}
		if rep == 0 {
			spans := filepath.Join(c.cache, "spans", fmt.Sprintf("%s-seed%d.json", s.name, c.seed))
			if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
				return nil, err
			}
			if err := writeSpans(spans, t); err != nil {
				return nil, err
			}
			fmt.Fprintln(os.Stderr, "perfbench: spans written to", spans)
		}
		for name, x := range layerMetrics(s, t, route) {
			samples[name] = append(samples[name], x)
		}
	}
	o := fps.outcome()
	overhead := 0.0
	if len(plain) > 0 {
		overhead = summarize("", "", samples["traced.replay_s"]).med/summarize("", "", plain).med - 1
	}
	for _, d := range layerCatalog {
		if d.name == "traced.overhead" {
			o.metrics = append(o.metrics, metric{name: d.name, unit: d.unit, med: overhead, q1: overhead, q3: overhead, n: len(plain)})
			continue
		}
		o.metrics = append(o.metrics, summarize(d.name, d.unit, samples[d.name]))
	}
	return o, nil
}

// layerDef names one per-layer metric.
type layerDef struct{ name, unit string }

// layerCatalog lists every per-layer metric in report order. Metrics of a
// layer a workload does not use (the other translator, host routing on a
// serial workload, Serve spans on the sharded one) read 0 from 0 samples.
var layerCatalog = []layerDef{
	{"trace.decode_s", "s"},
	{"trace.pulls", "count"},
	{"ftl.tp_write_self_s", "s"},
	{"ftl.tp_write_calls", "count"},
	{"ftl.tp_read_self_s", "s"},
	{"ftl.tp_read_calls", "count"},
	{"ftl.serve_self_s", "s"},
	{"ftl.check_s", "s"},
	{"ftl.format_s", "s"},
	{"ftl.precondition_s", "s"},
	{"ftl.wa", "ratio"},
	{"ftl.gc_collections", "count"},
	{"ftl.gc_map_hit_ratio", "ratio"},
	{"core.self_s", "s"},
	{"core.calls", "count"},
	{"core.gc_self_s", "s"},
	{"core.gc_calls", "count"},
	{"core.hit_ratio", "ratio"},
	{"core.dirty_replace_ratio", "ratio"},
	{"dftl.self_s", "s"},
	{"dftl.calls", "count"},
	{"dftl.gc_self_s", "s"},
	{"dftl.gc_calls", "count"},
	{"dftl.hit_ratio", "ratio"},
	{"dftl.dirty_replace_ratio", "ratio"},
	{"host.route_ns_per_req", "ns"},
	{"host.fragments_per_req", "ratio"},
	{"host.shard_req_imbalance", "ratio"},
	{"host.shard_busy_imbalance", "ratio"},
	{"flash.reads", "count"},
	{"flash.programs", "count"},
	{"flash.erases", "count"},
	{"ssd.mean_queue_depth", "count"},
	{"live.epochs", "count"},
	{"traced.replay_s", "s"},
	{"traced.overhead", "ratio"},
	{"untraced.req_per_s", "1/s"},
}

// translatorPrefix names the module of a workload's translator.
func translatorPrefix(s spec) string {
	if s.scheme == sim.SchemeDFTL {
		return "dftl"
	}
	return "core"
}

// layerMetrics derives the per-layer figures of one traced replay: the
// catalog entries for the layers the workload uses.
func layerMetrics(s spec, t *traced, route routeStats) map[string]float64 {
	t.root.settleDiscards()
	for _, c := range t.shards {
		c.settleDiscards()
	}
	var sum collector
	for _, c := range append([]*collector{t.root}, t.shards...) {
		for l := range sum.self {
			sum.self[l] += c.self[l]
			sum.calls[l] += c.calls[l]
		}
		sum.lookups += c.lookups
		sum.hits += c.hits
		sum.replacements += c.replacements
		sum.dirtyReplace += c.dirtyReplace
	}
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	tr := translatorPrefix(s)
	v := map[string]float64{
		"trace.decode_s":            secs(sum.self[layerDecode]),
		"trace.pulls":               float64(sum.calls[layerDecode]),
		"ftl.tp_write_self_s":       secs(sum.self[layerTPWrite]),
		"ftl.tp_write_calls":        float64(sum.calls[layerTPWrite]),
		"ftl.tp_read_self_s":        secs(sum.self[layerTPRead]),
		"ftl.tp_read_calls":         float64(sum.calls[layerTPRead]),
		"ftl.check_s":               secs(sum.self[layerCheck]),
		"ftl.format_s":              t.format.Seconds(),
		"ftl.precondition_s":        t.precondition.Seconds(),
		"ftl.wa":                    t.m.WriteAmplification(),
		"ftl.gc_collections":        float64(t.m.GCDataCollections + t.m.GCTransCollections),
		"ftl.gc_map_hit_ratio":      t.m.Hgcr(),
		tr + ".self_s":              secs(sum.self[layerXlate]),
		tr + ".calls":               float64(sum.calls[layerXlate]),
		tr + ".gc_self_s":           secs(sum.self[layerXlateGC]),
		tr + ".gc_calls":            float64(sum.calls[layerXlateGC]),
		tr + ".hit_ratio":           ratio(sum.hits, sum.lookups),
		tr + ".dirty_replace_ratio": ratio(sum.dirtyReplace, sum.replacements),
		"flash.reads":               float64(t.flash.Reads),
		"flash.programs":            float64(t.flash.Programs),
		"flash.erases":              float64(t.flash.Erases),
		"ssd.mean_queue_depth":      t.m.AvgQueueDepth(),
		"traced.replay_s":           t.replay.Seconds(),
	}
	if s.shards == 0 {
		v["ftl.serve_self_s"] = secs(sum.self[layerServe])
	} else {
		busy := make([]float64, len(t.shards))
		for i, c := range t.shards {
			busy[i] = float64(c.busy)
		}
		v["host.route_ns_per_req"] = route.nsPerReq
		v["host.fragments_per_req"] = route.fragsPerReq
		v["host.shard_req_imbalance"] = route.reqImbalance
		v["host.shard_busy_imbalance"] = maxOverMean(busy)
	}
	if s.live {
		v["live.epochs"] = float64(t.epochs)
	}
	return v
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func maxOverMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var max, sum float64
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 0
	}
	return max * float64(len(xs)) / sum
}
