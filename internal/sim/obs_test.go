package sim

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// obsParallelRun executes the deterministic 4×2/QD8 workload with the given
// observability sinks armed (either may be nil) and returns the metrics and
// the scheduler's event hash.
func obsParallelRun(t *testing.T, traceW, metricsW *bytes.Buffer) (ftl.Metrics, uint64) {
	t.Helper()
	space := int64(32 << 20)
	cfg := ftl.DefaultConfig(space)
	cfg.CacheBytes = ftl.DefaultCacheBytes(space)
	cfg.Channels = 4
	cfg.Dies = 2
	tr, err := NewTranslator(SchemeTPFTL, cfg.CacheBytes, cfg.LogicalPages(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := ftl.NewDevice(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Format(); err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(workload.Financial1().Scale(space), 4_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if traceW != nil {
		dev.SetTracer(obs.NewTracer(traceW))
	}
	if metricsW != nil {
		dev.SetMetricsExport(metricsW, 500)
	}
	admitAll(t, dev, 8, reqs)
	m := dev.Metrics()
	if err := dev.FinishObservability(); err != nil {
		t.Fatal(err)
	}
	return m, dev.Scheduler().EventHash()
}

// TestObservabilityDoesNotPerturbSimulation is the layer's core contract:
// arming the tracer and the metrics exporter must leave every simulated
// metric and the scheduler's event sequence bit-for-bit identical to a run
// with observability off. Observability reads the clock; it never advances
// it.
func TestObservabilityDoesNotPerturbSimulation(t *testing.T) {
	mOff, hOff := obsParallelRun(t, nil, nil)
	var traceBuf, metricsBuf bytes.Buffer
	mOn, hOn := obsParallelRun(t, &traceBuf, &metricsBuf)
	if hOff != hOn {
		t.Fatalf("tracing changed the scheduled event sequence: %x vs %x", hOff, hOn)
	}
	if mOff != mOn {
		t.Fatalf("observability changed the metrics\n off %+v\n on  %+v", mOff, mOn)
	}
	if traceBuf.Len() == 0 || metricsBuf.Len() == 0 {
		t.Fatal("observability produced no output; the non-perturbation property is untested")
	}
}

// TestObservabilityExportsDeterministic pins the artifacts themselves: two
// identical runs must emit byte-identical JSONL and trace files, and both
// must pass the repo's own schema validators (the same checks `make
// obs-smoke` and cmd/obsvalidate run).
func TestObservabilityExportsDeterministic(t *testing.T) {
	var trace1, metrics1, trace2, metrics2 bytes.Buffer
	obsParallelRun(t, &trace1, &metrics1)
	obsParallelRun(t, &trace2, &metrics2)
	if !bytes.Equal(trace1.Bytes(), trace2.Bytes()) {
		t.Fatal("trace export differs across identical runs")
	}
	if !bytes.Equal(metrics1.Bytes(), metrics2.Bytes()) {
		t.Fatal("metrics export differs across identical runs")
	}
	n, err := obs.ValidateMetricsJSONL(&metrics1)
	if err != nil {
		t.Fatalf("metrics JSONL fails its own schema check: %v", err)
	}
	if n < 2 {
		t.Fatalf("only %d metrics snapshots for 4000 requests at interval 500", n)
	}
	ev, err := obs.ValidateTrace(&trace1)
	if err != nil {
		t.Fatalf("trace JSON fails its own schema check: %v", err)
	}
	if ev == 0 {
		t.Fatal("trace contains no events")
	}
}

// TestSimRunObservabilityOptions drives the sinks through sim.Run's options
// (the path cmd/ftlsim uses): exports must be armed only for the measured
// phase, so snapshot counters line up with the result's metrics. A single
// shard routed through the host by Shards: 1 must export byte-identical
// files.
func TestSimRunObservabilityOptions(t *testing.T) {
	var refTrace, refMetrics []byte
	for _, shards := range []int{0, 1} {
		var traceBuf, metricsBuf bytes.Buffer
		o := goldenOptions(SchemeTPFTL)
		o.Shards = shards
		o.MetricsOut = &metricsBuf
		o.MetricsInterval = 900
		o.TraceOut = &traceBuf
		r, err := Run(o)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if _, err := obs.ValidateMetricsJSONL(bytes.NewReader(metricsBuf.Bytes())); err != nil {
			t.Fatalf("shards=%d: sim.Run metrics export fails validation: %v", shards, err)
		}
		if _, err := obs.ValidateTrace(bytes.NewReader(traceBuf.Bytes())); err != nil {
			t.Fatalf("shards=%d: sim.Run trace export fails validation: %v", shards, err)
		}
		// The final snapshot's cumulative counters are the measured phase's
		// totals: warm-up happened before the sinks were armed.
		lines := bytes.Split(bytes.TrimSpace(metricsBuf.Bytes()), []byte("\n"))
		last := lines[len(lines)-1]
		want := r.M.Counters()
		var got struct {
			Total obs.Counters `json:"total"`
		}
		if err := json.Unmarshal(last, &got); err != nil {
			t.Fatal(err)
		}
		if got.Total != want {
			t.Fatalf("shards=%d: final snapshot totals diverge from the run's metrics\n got %+v\nwant %+v", shards, got.Total, want)
		}
		if refTrace == nil {
			refTrace, refMetrics = traceBuf.Bytes(), metricsBuf.Bytes()
			continue
		}
		if !bytes.Equal(metricsBuf.Bytes(), refMetrics) {
			t.Errorf("shards=%d: metrics JSONL differs from shards=0", shards)
		}
		if !bytes.Equal(traceBuf.Bytes(), refTrace) {
			t.Errorf("shards=%d: span trace differs from shards=0", shards)
		}
	}
}

// TestSerialPhaseAccounting pins the per-phase attribution on the serial
// golden run (1 channel × 1 die × QD1), where a request's response decomposes
// exactly: every nanosecond the device spends belongs to exactly one phase.
func TestSerialPhaseAccounting(t *testing.T) {
	r, err := Run(goldenOptions(SchemeTPFTL))
	if err != nil {
		t.Fatal(err)
	}
	m := r.M

	resp := m.Phase(obs.PhaseResponse)
	if resp.Count != m.Requests {
		t.Fatalf("response histogram count %d != measured requests %d (warm-up reset must clear phase histograms too)", resp.Count, m.Requests)
	}
	if got := time.Duration(resp.Sum); got != m.ResponseTime {
		t.Fatalf("response histogram sum %v != ResponseTime %v", got, m.ResponseTime)
	}
	if resp.Max() != m.MaxResponse {
		t.Fatalf("response histogram max %v != MaxResponse %v", resp.Max(), m.MaxResponse)
	}

	// Exactly one translation phase per request.
	xlate := m.Phase(obs.PhaseXlateHit).Count + m.Phase(obs.PhaseXlateMiss).Count + m.Phase(obs.PhaseXlatePrefetch).Count
	if xlate != m.Requests {
		t.Fatalf("translation phase counts sum to %d, want one per request (%d)", xlate, m.Requests)
	}

	// The serial decomposition identity: response = queue + translation +
	// data + writeback + GC stall, exactly, summed over all requests.
	sum := m.Phase(obs.PhaseQueue).Sum +
		m.Phase(obs.PhaseXlateHit).Sum +
		m.Phase(obs.PhaseXlateMiss).Sum +
		m.Phase(obs.PhaseXlatePrefetch).Sum +
		m.Phase(obs.PhaseData).Sum +
		m.Phase(obs.PhaseWriteback).Sum +
		m.Phase(obs.PhaseGCStall).Sum
	if sum != resp.Sum {
		t.Fatalf("serial phase sums %v do not decompose the response sum %v (off by %v)",
			time.Duration(sum), time.Duration(resp.Sum), time.Duration(resp.Sum-sum))
	}

	// Satellite regression: the tracked maximum can never sit below the
	// estimated tail, in any phase.
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		h := m.Phase(p)
		if h.Count == 0 {
			continue
		}
		if h.Max() < h.Quantile(0.999) {
			t.Errorf("phase %s: max %v < p999 %v", p, h.Max(), h.Quantile(0.999))
		}
	}

	// The workload misses and prefetches: the identity above must not hold
	// vacuously on an all-hit run.
	if m.Phase(obs.PhaseXlateMiss).Count == 0 && m.Phase(obs.PhaseXlatePrefetch).Count == 0 {
		t.Fatal("no translation misses observed; phase attribution untested")
	}
	if m.Phase(obs.PhaseGCStall).Count == 0 {
		t.Fatal("no GC stalls observed; phase attribution untested")
	}
}

// TestDisabledObservabilityAllocates0 extends the core package's hot-path
// guard across the observability layer: with no tracer and no exporter
// armed, a cache-hit read — which now records into four phase histograms —
// must still perform zero heap allocations.
func TestDisabledObservabilityAllocates0(t *testing.T) {
	if !allocGuardsEnabled {
		t.Skip("allocation guards disabled under -race / -tags ftlsan")
	}
	space := int64(1 << 20)
	cfg := ftl.DefaultConfig(space)
	cfg.CacheBytes = ftl.DefaultCacheBytes(space)
	dev, err := ftl.NewDevice(cfg, core.New(core.DefaultConfig(cfg.CacheBytes)))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Format(); err != nil {
		t.Fatal(err)
	}
	req := func(arrival int64, write bool) trace.Request {
		return trace.Request{Arrival: arrival, Offset: 5 * 4096, Length: 4096, Op: opOf(write)}
	}
	if _, err := dev.Serve(req(0, true)); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Serve(req(1, false)); err != nil { // warm: entry now cached
		t.Fatal(err)
	}
	arrival := int64(2)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := dev.Serve(req(arrival, false)); err != nil {
			t.Fatal(err)
		}
		arrival++
	})
	if allocs != 0 {
		t.Fatalf("cache-hit read with observability disabled allocates %v times per op, want 0", allocs)
	}
	m := dev.Metrics()
	if m.Hits == 0 || m.Phase(obs.PhaseXlateHit).Count == 0 {
		t.Fatal("guard did not exercise the hit path through the phase histograms")
	}
}
