// Package sim builds simulated SSDs, drives them with workloads and
// collects the measurements the TPFTL paper's evaluation reports. It is the
// layer underneath cmd/experiments, the examples and the benchmark harness.
package sim

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/ftl/cdftl"
	"repro/internal/ftl/dftl"
	"repro/internal/ftl/optimal"
	"repro/internal/ftl/sftl"
	"repro/internal/ftl/zftl"
	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scheme names an FTL policy.
type Scheme string

// The schemes of the paper's evaluation (§5.1) plus CDFTL (§2.2).
const (
	SchemeDFTL    Scheme = "DFTL"
	SchemeTPFTL   Scheme = "TPFTL"
	SchemeSFTL    Scheme = "S-FTL"
	SchemeCDFTL   Scheme = "CDFTL"
	SchemeZFTL    Scheme = "ZFTL"
	SchemeOptimal Scheme = "Optimal"
)

// Schemes returns the paper's comparison set in figure order.
func Schemes() []Scheme {
	return []Scheme{SchemeDFTL, SchemeTPFTL, SchemeSFTL, SchemeOptimal}
}

// Options configures one simulation run.
type Options struct {
	// Scheme selects the FTL policy.
	Scheme Scheme
	// TPFTL optionally overrides the TPFTL configuration (ablation
	// variants, hotness ordering, compression); its CacheBytes is filled
	// from the run's budget when zero. Ignored for other schemes.
	TPFTL *core.Config

	// Profile is the workload; AddressSpace (if non-zero) rescales it.
	Profile      workload.Profile
	AddressSpace int64
	// Requests is the number of generated requests.
	Requests int
	// Seed makes the run deterministic.
	Seed int64
	// Trace, if non-nil, is replayed instead of generating from Profile.
	Trace []trace.Request
	// TraceStream, if non-nil, is a streamed request source replayed
	// instead of Trace or a generated workload: requests are pulled in
	// StreamBatch-sized batches, so resident memory is independent of the
	// trace's length. The simulated results are bit-for-bit what an eager
	// replay of the same requests through Trace would produce. The iterator
	// is consumed once (warm-up prefix first when ResetAfterWarmup is set);
	// mutually exclusive with Trace.
	TraceStream trace.Iterator
	// StreamBatch is the number of requests pulled from the source, and
	// handed to a shard, per batch (default host.DefaultBatch). A
	// wall-clock/memory knob only: simulated results are independent of it.
	StreamBatch int

	// CacheBytes is the mapping-cache budget. Zero selects the paper's
	// convention (block-level table size) unless CacheFraction is set.
	CacheBytes int64
	// CacheFraction, if non-zero, sets the budget to this fraction of the
	// full page-level mapping table (8 B per entry), the Fig. 8c/9/10
	// x-axis. 1/128 equals the default convention.
	CacheFraction float64

	// PagesPerBlock overrides the flash geometry (default 64).
	PagesPerBlock int
	// Channels and Dies select the parallel backend's geometry (defaults
	// ftl.DefaultChannels × ftl.DefaultDies — the paper's serial chip).
	Channels int
	Dies     int
	// TransPlacement places translation blocks on a multi-channel device:
	// striped across all dies (default) or pinned to channel 0.
	TransPlacement ftl.TPPlacement
	// Shards stripes the LPN space across this many independent FTL
	// instances — per-shard translator, mapping cache, GC and scheduler
	// clock — behind the multi-queue host frontend (internal/host). Every
	// run replays through that host; 0 and 1 both mean one device, served
	// on the calling goroutine, with bit-for-bit the same metrics. They
	// differ only in the Result's shape: 0 reports no per-shard results and
	// a zero Digest. With 2 or more, each shard is served by its own
	// goroutine; cache sampling, observability export and fault plans are
	// per-device and need a single shard.
	Shards int
	// Clients is the number of concurrent submitter goroutines feeding a
	// host of 2 or more shards (minimum, and default, one per shard). The
	// client topology is a wall-clock knob only: simulated results are
	// bit-for-bit independent of it. A single shard ignores it.
	Clients int
	// QueueDepth bounds in-flight requests (closed loop; per shard when
	// sharded). 0 selects 1, the scalar-clock compatibility default,
	// unless OpenLoop is set.
	QueueDepth int
	// OpenLoop admits every request at its trace arrival time instead of
	// waiting for a queue slot; QueueDepth is ignored.
	OpenLoop bool
	// GCPolicy selects the device's GC victim policy (default greedy).
	GCPolicy ftl.GCPolicy
	// WearLevelThreshold enables static wear leveling (see ftl.Config).
	WearLevelThreshold int
	// Precondition ages the device before measuring: this many passes of
	// uniformly random whole-device rewrites bring garbage collection to
	// its organic steady state (a freshly formatted device starts with
	// every block fully valid, which inflates early GC cost far beyond
	// what a long-running SSD shows). 0 disables.
	Precondition float64
	// SampleEvery enables cache sampling every N page accesses (Fig. 1/2).
	SampleEvery int64
	// ResetAfterWarmup, if > 0, serves this many leading requests as
	// warm-up and zeroes the metrics before the measured phase.
	ResetAfterWarmup int

	// Faults, if non-nil, is armed on the chip after formatting,
	// preconditioning and warm-up, so fault indexes land in the measured
	// workload. Transient faults exercise the device's bounded-retry path
	// (Metrics.InjectedFaults / FaultRetries); a power-cut plan makes the
	// run fail with flash.ErrPowerCut — use RunCrash to verify recovery
	// instead.
	Faults *flash.FaultPlan

	// MetricsOut, if non-nil, receives a JSONL metrics snapshot (counter
	// deltas + per-phase latency quantiles) every MetricsInterval measured
	// requests (default 1000). TraceOut, if non-nil, receives the run's
	// flash-operation span trace in Chrome trace_event JSON (open in
	// Perfetto). Both are armed after warm-up, cover only the measured
	// phase, and leave every simulated metric bit-for-bit unchanged.
	MetricsOut      io.Writer
	MetricsInterval int
	TraceOut        io.Writer

	// Telemetry, if non-nil, is the live scrape plane: the run installs one
	// cell per shard (StartRun) and each shard publishes immutable metric
	// epochs, frontend queue stats and flight-recorder entries into its cell
	// as it serves — readable concurrently through the plane's HTTP/expvar
	// surfaces while the run is in flight. Publication cadence is keyed to
	// served-request counts, so every simulated metric, EventHash and Digest
	// is bit-for-bit identical with the plane attached or not. The cells
	// attach after preconditioning, so they cover warm-up and the measured
	// phase.
	Telemetry *live.Plane
}

// Sample is one cache-distribution observation (Fig. 1/2 instrumentation).
type Sample struct {
	PageAccesses int64
	Entries      int
	TPNodes      int
	DirtyEntries int
	// DirtyHist counts cached translation pages by their number of dirty
	// entries.
	DirtyHist map[int]int
}

// Result is the outcome of one run.
type Result struct {
	Scheme     Scheme
	Variant    string // TPFTL ablation monogram, "" otherwise
	Workload   string
	CacheBytes int64
	M          ftl.Metrics
	Samples    []Sample
	TraceStats trace.Stats
	// Shards holds the per-shard results in shard order; nil when
	// Options.Shards is 0.
	Shards []ShardRun
	// Digest folds the per-shard event hashes into one value that is
	// insensitive to how shard executions interleaved in wall time (see
	// host.Digest); 0 when Options.Shards is 0.
	Digest uint64
}

// ShardRun is one shard's slice of a run's outcome.
type ShardRun struct {
	Shard int
	// M is the shard device's measured-phase metrics.
	M ftl.Metrics
	// EventHash is the shard scheduler's order-sensitive event hash.
	EventHash uint64
	// FS is the shard frontend's queueing statistics — the same snapshot
	// struct the live telemetry plane publishes, so the ftlsim report table
	// and a live scrape agree.
	FS ssd.FrontendStats
}

// FullTableBytes returns the size of the entire page-level mapping table for
// an address space (8 B per entry), the unit of Options.CacheFraction.
func FullTableBytes(addressSpace int64) int64 {
	return addressSpace / ftl.DefaultPageBytes * ftl.EntryBytesRAM
}

// DefaultStreamBatch is a pull size for callers that drain a trace.Iterator
// themselves: large enough that per-pull overhead vanishes, small enough
// that the batch buffer stays a few hundred KiB.
const DefaultStreamBatch = 4096

// NewTranslator constructs the translator for a scheme.
func NewTranslator(s Scheme, cacheBytes int64, logicalPages int64, tpftlCfg *core.Config) (ftl.Translator, error) {
	switch s {
	case SchemeDFTL:
		return dftl.New(dftl.Config{CacheBytes: cacheBytes}), nil
	case SchemeSFTL:
		return sftl.New(sftl.Config{CacheBytes: cacheBytes}), nil
	case SchemeCDFTL:
		return cdftl.New(cdftl.Config{CacheBytes: cacheBytes}), nil
	case SchemeZFTL:
		return zftl.New(zftl.Config{CacheBytes: cacheBytes}), nil
	case SchemeOptimal:
		return optimal.New(logicalPages), nil
	case SchemeTPFTL:
		cfg := core.DefaultConfig(cacheBytes)
		if tpftlCfg != nil {
			cfg = *tpftlCfg
			if cfg.CacheBytes == 0 {
				cfg.CacheBytes = cacheBytes
			}
		}
		return core.New(cfg), nil
	default:
		return nil, fmt.Errorf("sim: unknown scheme %q", s)
	}
}

// Run executes one simulation. Every run is one pipeline: the request
// source — a replayed trace, a streamed one, or a generated profile — is an
// iterator, replayed through the host frontend (internal/host) over
// max(1, Shards) formatted, preconditioned and warmed devices, each of which
// admits through its own ssd.Admitter and passes a post-run consistency
// check.
func Run(o Options) (*Result, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	space := o.Profile.AddressSpace
	if o.AddressSpace != 0 {
		space = o.AddressSpace
	}
	if space <= 0 {
		return nil, fmt.Errorf("sim: no address space configured")
	}
	profile := o.Profile.Scale(space)

	cacheBytes := o.CacheBytes
	if o.CacheFraction > 0 {
		cacheBytes = int64(float64(FullTableBytes(space)) * o.CacheFraction)
	}
	if cacheBytes == 0 {
		cacheBytes = ftl.DefaultCacheBytes(space)
	}

	devCfg := ftl.DefaultConfig(space)
	devCfg.CacheBytes = cacheBytes
	devCfg.GCPolicy = o.GCPolicy
	devCfg.WearLevelThreshold = o.WearLevelThreshold
	if o.PagesPerBlock != 0 {
		devCfg.PagesPerBlock = o.PagesPerBlock
	}
	devCfg.Channels = o.Channels
	devCfg.Dies = o.Dies
	devCfg.TransPlacement = o.TransPlacement

	src, maxEnd, total, err := o.source(profile)
	if err != nil {
		return nil, err
	}
	shards := o.Shards
	if shards == 0 {
		shards = 1
	}
	lay, cfgs, err := host.ShardConfigs(devCfg, shards)
	if err != nil {
		return nil, err
	}
	// The TPFTL override's explicit cache budget is a whole-device number;
	// split it like the implicit budget so ablation variants shard fairly.
	tpftlCfg := o.TPFTL
	if tpftlCfg != nil && tpftlCfg.CacheBytes > 0 && shards > 1 {
		c := *tpftlCfg
		c.CacheBytes /= int64(shards)
		if c.CacheBytes < ftl.EntryBytesRAM {
			c.CacheBytes = ftl.EntryBytesRAM
		}
		tpftlCfg = &c
	}
	// Age only the workload's footprint: the cold remainder stays in its
	// pristine fully-valid blocks, exactly where a long-running device's GC
	// would have consolidated it. A replayed trace clips the footprint to
	// its own address high-water mark.
	footBytes := profile.FootprintBytes()
	if maxEnd > 0 && maxEnd < footBytes {
		footBytes = maxEnd
	}
	footPages := footBytes / int64(devCfg.PageSize)

	devs := make([]*ftl.Device, shards)
	trs := make([]ftl.Translator, shards)
	for s := range devs {
		tr, err := NewTranslator(o.Scheme, cfgs[s].CacheBytes, cfgs[s].LogicalPages(), tpftlCfg)
		if err != nil {
			return nil, err
		}
		dev, err := ftl.NewDevice(cfgs[s], tr)
		if err != nil {
			return nil, err
		}
		if err := dev.Format(); err != nil {
			return nil, err
		}
		if o.Precondition > 0 {
			// The striping is chunk-interleaved, so a footprint prefix of
			// the global space maps to a prefix of every shard's space.
			image := lay.ImagePages(s, footPages)
			writes := int(o.Precondition * float64(image))
			if err := dev.PreconditionRange(writes, image, o.Seed+1+int64(s)); err != nil {
				return nil, err
			}
			dev.ResetMetrics()
		}
		// Warm after preconditioning: the optimal FTL snapshots the live
		// mapping (it holds the authoritative table in RAM and never reads
		// the persisted translation pages).
		if w, ok := tr.(ftl.Warmer); ok {
			w.Warm(dev.Truth)
		}
		devs[s], trs[s] = dev, tr
	}

	res := &Result{
		Scheme:     o.Scheme,
		Workload:   profile.Name,
		CacheBytes: cacheBytes,
	}
	if t, ok := trs[0].(*core.FTL); ok {
		res.Variant = t.Variant()
	}
	if insp, ok := trs[0].(ftl.Inspector); ok && o.SampleEvery > 0 {
		devs[0].SampleEvery = o.SampleEvery
		devs[0].OnSample = func(n int64) {
			s := insp.Snapshot()
			sample := Sample{
				PageAccesses: n,
				Entries:      s.Entries,
				TPNodes:      s.TPNodes,
				DirtyEntries: s.DirtyEntries,
				DirtyHist:    map[int]int{},
			}
			for _, d := range s.DirtyPerPage {
				sample.DirtyHist[d]++
			}
			res.Samples = append(res.Samples, sample)
		}
	}

	h, err := host.New(lay, devs, host.Options{QueueDepth: o.QueueDepth, OpenLoop: o.OpenLoop})
	if err != nil {
		return nil, err
	}
	if o.Telemetry != nil {
		// One cell per shard; warm-up and the measured phase both publish
		// (the warm-up reset folds into each cell's monotonic base).
		h.SetLive(o.Telemetry.StartRun(live.RunInfo{
			Scheme:        string(o.Scheme),
			Workload:      profile.Name,
			Shards:        shards,
			TotalRequests: total,
		}))
	}

	// Trace statistics accumulate as the replay pulls batches through the
	// source, warm-up prefix included.
	var acc trace.StatsAccum
	src = &statsIter{it: src, acc: &acc}
	replay := func(it trace.Iterator, phase string) (*host.Outcome, error) {
		out, err := h.ReplayStream(it, host.ReplayOptions{Clients: o.Clients, Batch: o.StreamBatch})
		if err != nil {
			return nil, fmt.Errorf("sim: %s/%s%s: %w", o.Scheme, profile.Name, phase, err)
		}
		return out, nil
	}
	if o.ResetAfterWarmup > 0 {
		if _, err := replay(trace.Limit(src, int64(o.ResetAfterWarmup)), " warm-up"); err != nil {
			return nil, err
		}
		for _, dev := range devs {
			dev.ResetMetrics()
		}
	}
	// Faults and the observability sinks are armed only for the measured
	// phase (after warm-up's ResetMetrics), so fault indexes land in the
	// measured workload and exports describe what the result reports.
	for _, dev := range devs {
		if o.Faults != nil {
			dev.Chip().SetFaultPlan(o.Faults)
		}
		if o.TraceOut != nil {
			dev.SetTracer(obs.NewTracer(o.TraceOut))
		}
		if o.MetricsOut != nil {
			interval := o.MetricsInterval
			if interval <= 0 {
				interval = 1000
			}
			dev.SetMetricsExport(o.MetricsOut, int64(interval))
		}
	}
	out, err := replay(src, "")
	if err != nil {
		return nil, err
	}
	res.TraceStats = acc.Stats()
	if o.Shards == 0 {
		res.M = out.Shards[0].M
	} else {
		res.M = out.M
		res.Digest = out.Digest
		res.Shards = make([]ShardRun, len(out.Shards))
		for i, sr := range out.Shards {
			res.Shards[i] = ShardRun{Shard: sr.Shard, M: sr.M, EventHash: sr.EventHash, FS: sr.FS}
		}
	}

	for s, dev := range devs {
		if err := dev.FinishObservability(); err != nil {
			return nil, fmt.Errorf("sim: %s/%s observability flush: %w", o.Scheme, profile.Name, err)
		}
		// Consistency is part of every run: a scheme that survives the
		// trace but corrupted its mapping must not produce results.
		if err := dev.CheckConsistency(dirtySetOf(trs[s])); err != nil {
			return nil, fmt.Errorf("sim: %s/%s shard %d post-run consistency: %w", o.Scheme, profile.Name, s, err)
		}
	}
	return res, nil
}

// validate rejects options no run can honour, before anything is built.
func (o Options) validate() error {
	switch {
	case o.Requests < 0:
		return fmt.Errorf("sim: negative request count %d", o.Requests)
	case o.Shards < 0:
		return fmt.Errorf("sim: negative shard count %d", o.Shards)
	case o.CacheBytes < 0:
		return fmt.Errorf("sim: negative cache budget %d B", o.CacheBytes)
	case o.CacheFraction < 0:
		return fmt.Errorf("sim: negative cache fraction %v", o.CacheFraction)
	case o.Trace != nil && o.TraceStream != nil:
		return fmt.Errorf("sim: Trace and TraceStream are mutually exclusive")
	case o.Shards > 1 && (o.SampleEvery > 0 || o.MetricsOut != nil || o.TraceOut != nil || o.Faults != nil):
		return fmt.Errorf("sim: cache sampling, observability export and fault plans are per-device; not supported with Shards > 1")
	}
	return nil
}

// source returns the run's request stream, the address high-water mark a
// replayed trace carries (its slice summary, or a streamed source's header
// hint; 0 when unknown or generated), and the request count when known (0
// otherwise — the live plane's ETA denominator).
func (o Options) source(profile workload.Profile) (it trace.Iterator, maxEnd, total int64, err error) {
	switch {
	case o.TraceStream != nil:
		// trace.Stream carries both hints in its binary header.
		if h, ok := o.TraceStream.(interface{ MaxEnd() int64 }); ok {
			maxEnd = h.MaxEnd()
		}
		if h, ok := o.TraceStream.(interface{ Records() int64 }); ok {
			total = h.Records()
		}
		return o.TraceStream, maxEnd, total, nil
	case o.Trace != nil:
		return trace.NewSliceIterator(o.Trace), trace.Summarize(o.Trace).MaxEnd, int64(len(o.Trace)), nil
	}
	g, err := workload.NewGenerator(profile, o.Seed)
	if err != nil {
		return nil, 0, 0, err
	}
	return g.Iterator(o.Requests), 0, int64(o.Requests), nil
}

// statsIter passes batches through from a request source while folding each
// request into a StatsAccum. Only the replay's routing goroutine calls Next,
// so the accumulator needs no synchronization.
type statsIter struct {
	it  trace.Iterator
	acc *trace.StatsAccum
}

func (s *statsIter) Next(batch []trace.Request) (int, error) {
	n, err := s.it.Next(batch)
	for i := 0; i < n; i++ {
		s.acc.Add(batch[i])
	}
	return n, err
}

// dirtySetOf extracts the dirty cached entries from any scheme that exposes
// them; nil disables the truth/persist cross-check for schemes that do not.
func dirtySetOf(tr ftl.Translator) map[ftl.LPN]flash.PPN {
	type dirtier interface {
		DirtyCached() map[ftl.LPN]flash.PPN
	}
	if d, ok := tr.(dirtier); ok {
		return d.DirtyCached()
	}
	return nil
}
