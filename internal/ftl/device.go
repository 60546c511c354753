package ftl

import (
	"errors"
	"io"
	"math/rand"
	"time"

	"repro/internal/flash"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// phase labels which activity flash operations are attributed to.
type phase uint8

const (
	phaseAT phase = iota // address translation / user access
	phaseGC
)

// Device is a simulated SSD: flash chip + block management + GC + the
// on-flash mapping table, driven by a pluggable Translator (the
// mapping-cache policy under study).
type Device struct {
	cfg  Config
	chip *flash.Chip
	bm   *blockMgr
	tr   Translator

	entriesPerTP int
	numTPs       int
	logicalPages int64

	gtd []flash.PPN // VTPN → physical translation page
	sh  shadow      // truth and persisted view of the mapping (verification)

	tpBuf []flash.PPN // scratch returned by ReadTP

	// sched is the event-driven clock of the parallel backend: flash
	// operations are issued onto the die of their block and overlap when
	// independent (see internal/ssd). At 1 channel × 1 die it reproduces
	// the scalar-clock timing of the original device bit-for-bit.
	sched   *ssd.Scheduler
	serving bool          // inside a request; timing charged only then
	resetAt time.Duration // simulated time of the last metrics reset
	// busyAtReset snapshots per-channel busy time at the last metrics
	// reset, so Metrics reports busy deltas of the measured phase only.
	busyAtReset [MaxChannels]time.Duration

	seq  int64 // program sequence counter (crash-recovery ordering)
	ph   phase
	inGC bool

	// rng is the device's private random source. Nothing in the device
	// touches the global math/rand state, so a run is bit-for-bit
	// reproducible from Config.Seed (and a PreconditionRange seed).
	rng *rand.Rand

	m Metrics

	// Observability (all nil/zero when disabled; the disabled path does no
	// work — see internal/obs). tracer mirrors the scheduler's tracer so the
	// device can emit request spans; metricsW streams a JSONL snapshot every
	// metricsEvery served requests. The per-request phase accumulators
	// (reqXlate/reqData/reqWB and the hit/miss/prefetch classification) are
	// reset at admission and folded into m.Phases at completion.
	tracer       *obs.Tracer
	metricsW     *obs.MetricsWriter
	metricsEvery int64
	// live is the shard's telemetry cell (nil when the live plane is off —
	// the disabled path pays one nil check and allocates nothing). Epochs
	// and recorder appends happen only on the serving goroutine.
	live        *live.Cell
	snapSeq     int64
	lastExport  obs.Counters
	reqXlate    time.Duration
	reqData     time.Duration
	reqWB       time.Duration
	reqMiss     bool
	reqPrefetch bool

	// OnSample, if set, is invoked every SampleEvery user page accesses
	// with the current page-access count; the Fig. 1/2 instrumentation
	// hooks in here.
	OnSample    func(pageAccesses int64)
	SampleEvery int64

	formatted bool
}

// NewDevice builds a device with the given configuration and policy.
func NewDevice(cfg Config, tr Translator) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalize()
	chip, err := flash.New(cfg.flashConfig())
	if err != nil {
		return nil, err
	}
	entriesPerTP := cfg.PageSize / EntryBytesInFlash
	logicalPages := cfg.LogicalPages()
	numTPs := int((logicalPages + int64(entriesPerTP) - 1) / int64(entriesPerTP))
	bm := newBlockMgr(chip, cfg.TransPlacement)
	bm.policy = cfg.GCPolicy
	d := &Device{
		cfg:          cfg,
		chip:         chip,
		bm:           bm,
		tr:           tr,
		entriesPerTP: entriesPerTP,
		numTPs:       numTPs,
		logicalPages: logicalPages,
		gtd:          make([]flash.PPN, numTPs),
		sh:           newShadow(logicalPages, entriesPerTP),
		tpBuf:        make([]flash.PPN, entriesPerTP),
		sched:        ssd.NewScheduler(cfg.Channels, cfg.Dies),
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	d.rng = rand.New(rand.NewSource(seed))
	if ga, ok := tr.(GeometryAware); ok {
		ga.SetGeometry(entriesPerTP)
	}
	for i := range d.gtd {
		d.gtd[i] = flash.InvalidPPN
	}
	return d, nil
}

// Config returns the device configuration (normalized).
func (d *Device) Config() Config { return d.cfg }

// Chip exposes the underlying flash chip (read-only use in tests/benches).
func (d *Device) Chip() *flash.Chip { return d.chip }

// Translator returns the device's mapping policy.
func (d *Device) Translator() Translator { return d.tr }

// Metrics returns a snapshot of the accumulated counters, including the
// parallel backend's per-channel busy time and elapsed simulated time since
// the last reset.
func (d *Device) Metrics() Metrics {
	m := d.m
	fc := d.chip.Config()
	m.Channels = fc.NumChannels()
	m.DiesPerChannel = fc.NumDies() / m.Channels
	for c := 0; c < m.Channels && c < MaxChannels; c++ {
		m.ChanBusy[c] = d.sched.ChannelBusy(c) - d.busyAtReset[c]
	}
	if now := d.sched.Now(); now > d.resetAt {
		m.Elapsed = now - d.resetAt
	}
	return m
}

// ResetMetrics zeroes the counters (e.g. after a warm-up phase) and re-bases
// the busy-time and elapsed-time accounting at the current simulated time.
// With a live cell attached, the pre-reset totals are first published and
// folded into the cell's monotonic base, so counters scraped off the live
// plane keep growing across the reset (the Prometheus counter contract).
func (d *Device) ResetMetrics() {
	if c := d.live; c != nil {
		d.publishLive()
		c.FoldBase(d.m.Counters(), d.m.GCDataCollections, d.m.GCTransCollections)
	}
	d.m = Metrics{}
	for c := 0; c < d.chip.Config().NumChannels() && c < MaxChannels; c++ {
		d.busyAtReset[c] = d.sched.ChannelBusy(c)
	}
	d.resetAt = d.sched.Now()
	d.lastExport = obs.Counters{}
}

// SetTracer attaches (or with nil, detaches) a span tracer: every flash
// operation the scheduler places becomes a Chrome trace_event span on its
// die's track, and every served request an async span on the request lane.
// Tracing reads the simulated clock and never advances it.
func (d *Device) SetTracer(t *obs.Tracer) {
	d.tracer = t
	d.sched.SetTracer(t)
	if t == nil {
		return
	}
	t.ProcessName(0, "flash dies")
	t.ProcessName(1, "requests")
	fc := d.chip.Config()
	for die := 0; die < fc.NumDies(); die++ {
		t.ThreadName(die, fc.ChannelOfDie(die))
	}
}

// SetLive attaches (or with nil, detaches) the shard's live-telemetry cell.
// Attach before serving; the device publishes immutable epochs into the cell
// at the cell's request-count cadence and appends every request to its
// flight recorder — all from the serving goroutine, the cell's single
// writer. Telemetry reads the simulated clock and never advances it.
func (d *Device) SetLive(c *live.Cell) { d.live = c }

// PublishLive immediately publishes a telemetry epoch from the current
// metrics (end of run or phase boundary). No-op without a cell.
func (d *Device) PublishLive() { d.publishLive() }

// publishLive builds one epoch from the cumulative metrics and swaps it
// into the cell. Cold path: only reached with the live plane enabled.
func (d *Device) publishLive() {
	if c := d.live; c != nil {
		c.Publish(int64(d.sched.Now()), d.m.Counters(),
			d.m.GCDataCollections, d.m.GCTransCollections, int64(d.m.MaxResponse))
	}
}

// recordLive appends one served (or failed — complete stays zero) request
// to the flight recorder and publishes an epoch when one is due. The
// recorder ring is pre-allocated and Record is pointer-free, so this
// allocates nothing per request.
//
//ftl:hotpath
func (d *Device) recordLive(c *live.Cell, req *trace.Request, arrival, admit, complete time.Duration) {
	if c == nil {
		return
	}
	c.Recorder().Append(live.Record{
		SimNS:      int64(d.sched.Now()),
		Kind:       liveKind(req.Op),
		Off:        req.Offset,
		N:          req.Length,
		ArrivalNS:  int64(arrival),
		AdmitNS:    int64(admit),
		CompleteNS: int64(complete),
	})
	if c.Due(d.m.Requests) {
		d.publishLive()
	}
}

// liveKind maps a host op onto its flight-recorder record kind.
func liveKind(op trace.Op) live.Kind {
	switch op {
	case trace.OpWrite:
		return live.KindWrite
	case trace.OpWriteFUA:
		return live.KindWriteFUA
	case trace.OpTrim:
		return live.KindTrim
	case trace.OpFlush:
		return live.KindFlush
	default:
		return live.KindRead
	}
}

// SetMetricsExport streams a metrics snapshot (cumulative counters, deltas,
// per-phase quantiles) to w as one JSON line every `every` served requests.
// Arm it after the warm-up ResetMetrics so deltas cover the measured phase.
func (d *Device) SetMetricsExport(w io.Writer, every int64) {
	if w == nil || every <= 0 {
		d.metricsW, d.metricsEvery = nil, 0
		return
	}
	d.metricsW = obs.NewMetricsWriter(w)
	d.metricsEvery = every
	d.snapSeq = 0
	m := d.Metrics()
	d.lastExport = m.Counters()
}

// FinishObservability flushes the observability sinks at end of run: a
// final metrics snapshot when requests were served past the last interval
// boundary, then the JSONL flush and the trace-file footer. A device with
// no sinks armed is untouched.
func (d *Device) FinishObservability() error {
	var firstErr error
	if d.metricsW != nil {
		if d.m.Requests > d.lastExport.Requests || d.snapSeq == 0 {
			d.exportSnapshot()
		}
		firstErr = d.metricsW.Flush()
	}
	if d.tracer != nil {
		if err := d.tracer.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// exportSnapshot writes one JSONL metrics record stamped with the current
// simulated clock.
func (d *Device) exportSnapshot() {
	m := d.Metrics()
	cur := m.Counters()
	d.snapSeq++
	rec := obs.SnapshotRecord{
		Seq:       d.snapSeq,
		SimTimeNS: int64(d.sched.Now()),
		Requests:  cur.Requests,
		Delta:     cur.Sub(d.lastExport),
		Total:     cur,
		Phases:    m.PhaseSnapshots(),
	}
	d.metricsW.Write(&rec)
	d.lastExport = cur
}

// Now returns the simulated device clock: the completion time of the latest
// retired request.
func (d *Device) Now() time.Duration { return d.sched.Now() }

// Scheduler exposes the event-driven backend clock (tests and the
// simulation harness read utilization and the event hash from it).
func (d *Device) Scheduler() *ssd.Scheduler { return d.sched }

// Format pre-fills the device: every logical page is written once in LPN
// order and the full mapping table is laid out in translation pages, putting
// the SSD "in full use" as the paper's experiments assume. Formatting
// bypasses the mapping cache and is excluded from all metrics.
func (d *Device) Format() error {
	if d.formatted {
		return errf("device already formatted")
	}
	for lpn := int64(0); lpn < d.logicalPages; lpn++ {
		ppn, err := d.bm.alloc(blockData)
		if err != nil {
			return err
		}
		if _, err := d.chipProgram(ppn, flash.Meta{Kind: flash.KindData, Tag: lpn, Seq: d.nextSeq()}); err != nil {
			return err
		}
		d.sh.setTruth(LPN(lpn), ppn)
		d.sh.setPersist(LPN(lpn), ppn)
	}
	for v := 0; v < d.numTPs; v++ {
		ppn, err := d.bm.alloc(blockTrans)
		if err != nil {
			return err
		}
		if _, err := d.chipProgram(ppn, flash.Meta{Kind: flash.KindTranslation, Tag: int64(v), Seq: d.nextSeq()}); err != nil {
			return err
		}
		d.gtd[v] = ppn
	}
	d.formatted = true
	return nil
}

// Formatted reports whether Format has run.
func (d *Device) Formatted() bool { return d.formatted }

// Precondition ages the device into a GC steady state: it rewrites `writes`
// uniformly random logical pages through the normal allocation and GC paths,
// so block occupancy reaches the organic fragmentation a long-running device
// shows, instead of the all-valid state Format leaves behind. The mapping
// cache is bypassed (truth and persist are updated directly, as the
// preconditioning agent knows the mapping), so measurements start with a
// cold cache; GC triggered during preconditioning still exercises the real
// Translator paths. Call ResetMetrics afterwards.
func (d *Device) Precondition(writes int, seed int64) error {
	return d.PreconditionRange(writes, d.logicalPages, seed)
}

// PreconditionRange is Precondition restricted to LPNs in [0, pages): aging
// only a workload's footprint leaves the cold remainder consolidated in
// fully-valid blocks, as on a long-running device.
func (d *Device) PreconditionRange(writes int, pages int64, seed int64) error {
	if !d.formatted {
		return errf("Precondition requires a formatted device")
	}
	if pages <= 0 || pages > d.logicalPages {
		pages = d.logicalPages
	}
	d.rng = rand.New(rand.NewSource(seed))
	d.ph = phaseAT
	for i := 0; i < writes; i++ {
		lpn := LPN(d.rng.Int63n(pages))
		if err := d.maybeGC(); err != nil {
			return err
		}
		old := d.sh.truth[lpn]
		ppn, err := d.bm.alloc(blockData)
		if err != nil {
			return err
		}
		if _, err := d.chipProgram(ppn, flash.Meta{Kind: flash.KindData, Tag: int64(lpn), Seq: d.nextSeq()}); err != nil {
			return err
		}
		if old.Valid() {
			if err := d.bm.invalidate(old); err != nil {
				return err
			}
		}
		d.sh.setTruth(lpn, ppn)
		d.sh.setPersist(lpn, ppn)
	}
	return nil
}

// Serve executes one request admitted as soon as the device is idle — the
// closed-loop queue-depth-1 admission of the original scalar-clock device —
// and returns its response time (queueing included). Requests must be
// submitted in non-decreasing arrival order. Deeper queues and open-loop
// arrival admission go through ServeAt, driven by ssd.Admitter.
func (d *Device) Serve(req trace.Request) (time.Duration, error) {
	arrival := time.Duration(req.Arrival)
	admit := d.sched.Now()
	if arrival > admit {
		admit = arrival
	}
	_, resp, err := d.serveAdmitted(req, admit)
	return resp, err
}

// ServeAt executes one request admitted at the given simulated time (never
// before its arrival) and returns its completion time. It implements
// ssd.Server: the frontend picks admission times, the device schedules the
// request's flash operations onto its dies from there. Logical effects
// apply in call order; only timing overlaps between requests.
func (d *Device) ServeAt(req trace.Request, admit time.Duration) (time.Duration, error) {
	complete, _, err := d.serveAdmitted(req, admit)
	return complete, err
}

func (d *Device) serveAdmitted(req trace.Request, admit time.Duration) (complete, resp time.Duration, err error) {
	if err := req.Validate(); err != nil {
		return 0, 0, err
	}
	if req.End() > d.cfg.LogicalBytes {
		return 0, 0, errf("request [%d,%d) beyond capacity %d", req.Offset, req.End(), d.cfg.LogicalBytes)
	}
	arrival := time.Duration(req.Arrival)
	if admit < arrival {
		admit = arrival
	}
	d.ph = phaseAT
	d.serving = true
	defer func() { d.serving = false }()
	d.sched.BeginRequest(admit)
	d.reqXlate, d.reqData, d.reqWB = 0, 0, 0
	d.reqMiss, d.reqPrefetch = false, false
	gcBase := d.m.GCTime
	if c := d.live; c != nil {
		// Deferred so a failing request — the one a post-mortem cares
		// about — still lands in the flight recorder (complete stays 0).
		defer func() { d.recordLive(c, &req, arrival, admit, complete) }()
	}

	switch req.Op {
	case trace.OpRead, trace.OpWrite, trace.OpWriteFUA:
		first, last := req.Pages(d.cfg.PageSize)
		d.tr.BeginRequest(LPN(first), LPN(last), req.IsWrite())
		for lpn := LPN(first); lpn <= LPN(last); lpn++ {
			// Page sub-operations of one request carry no dependency on
			// each other: each opens a fresh chain from the admission time,
			// so sub-ops striped onto different dies overlap.
			d.sched.BreakChain()
			var err error
			if req.IsWrite() {
				err = d.writePage(lpn)
			} else {
				err = d.readPage(lpn)
			}
			if err != nil {
				return 0, 0, err
			}
			if d.SampleEvery > 0 && d.m.PageAccesses()%d.SampleEvery == 0 && d.OnSample != nil {
				d.OnSample(d.m.PageAccesses())
			}
		}
		if req.Op == trace.OpWriteFUA {
			// Every acknowledged program is durable in this device (no
			// volatile data buffer inside), so FUA costs nothing extra
			// here; the counter feeds the host-interface accounting and
			// any buffer wrapped around the device honors write-through.
			d.m.FUAWrites++
		}
	case trace.OpTrim:
		d.m.TrimRequests++
		if err := d.trimRequest(req); err != nil {
			return 0, 0, err
		}
	case trace.OpFlush:
		d.m.FlushRequests++
		if err := d.flushMapping(); err != nil {
			return 0, 0, err
		}
	default:
		return 0, 0, errf("unhandled request op %v", req.Op)
	}

	complete = d.sched.EndRequest()
	resp = complete - arrival
	d.m.Requests++
	d.m.ServiceTime += complete - admit
	d.m.ResponseTime += resp
	d.m.QueueTime += admit - arrival
	d.m.ObserveResponse(resp)
	d.observeRequest(arrival, admit, complete, d.m.GCTime-gcBase, req.Op)
	if SanitizerEnabled {
		if err := d.sanitize(); err != nil {
			return 0, 0, err
		}
	}
	return complete, resp, nil
}

// observeRequest attributes one completed request's latency across the
// phase histograms and feeds the tracer/export sinks. For reads and writes,
// translation time goes to exactly one of the hit/miss/prefetch phases —
// classified by whether any cache lookup missed and whether a miss load
// prefetched extra entries — so those three counts sum to the read/write
// request count. Trims and flushes record their flash time into their own
// phases instead.
//
//ftl:hotpath
func (d *Device) observeRequest(arrival, admit, complete, gcStall time.Duration, op trace.Op) {
	d.m.Phases[obs.PhaseQueue].Record(admit - arrival)
	switch op {
	case trace.OpTrim:
		d.m.Phases[obs.PhaseTrim].Record(d.reqWB)
	case trace.OpFlush:
		d.m.Phases[obs.PhaseFlush].Record(d.reqWB)
	default:
		xp := obs.PhaseXlateHit
		if d.reqMiss {
			xp = obs.PhaseXlateMiss
			if d.reqPrefetch {
				xp = obs.PhaseXlatePrefetch
			}
		}
		d.m.Phases[xp].Record(d.reqXlate)
		d.m.Phases[obs.PhaseData].Record(d.reqData)
		d.m.Phases[obs.PhaseWriteback].Record(d.reqWB)
	}
	d.m.Phases[obs.PhaseGCStall].Record(gcStall)
	if t := d.tracer; t != nil {
		t.RequestSpan(op.String(), d.m.Requests, arrival, complete)
	}
	if d.metricsW != nil && d.m.Requests%d.metricsEvery == 0 {
		d.exportSnapshot()
	}
}

// sanitize runs the per-operation invariant suite when the binary is built
// with -tags ftlsan: full device consistency (chip bookkeeping, GTD,
// truth/persist against the translator's dirty set) plus the translator's
// own structural checks, when it exposes them.
func (d *Device) sanitize() error {
	var dirty map[LPN]flash.PPN
	if t, ok := d.tr.(interface{ DirtyCached() map[LPN]flash.PPN }); ok {
		dirty = t.DirtyCached()
	}
	checks := []func() error{func() error { return d.CheckConsistency(dirty) }}
	if t, ok := d.tr.(interface{ CheckInvariants() error }); ok {
		checks = append(checks, t.CheckInvariants)
	}
	return SanitizeCheck(d.tr.Name(), checks...)
}

func (d *Device) readPage(lpn LPN) error {
	d.m.PageReads++
	ppn, err := d.tr.Translate(d, lpn)
	if err != nil {
		return err
	}
	if ppn != d.sh.truth[lpn] {
		return errf("%s mistranslated read of lpn %d: got ppn %d, truth %d",
			d.tr.Name(), lpn, ppn, d.sh.truth[lpn])
	}
	if !ppn.Valid() {
		d.m.UnmappedReads++
		return nil
	}
	lat, err := d.chipRead(ppn)
	if err != nil {
		return err
	}
	d.issuePage(ppn, lat, obs.OpDataRead)
	d.reqData += lat
	d.m.FlashReads++
	return nil
}

func (d *Device) writePage(lpn LPN) error {
	d.m.PageWrites++
	old, err := d.tr.Translate(d, lpn)
	if err != nil {
		return err
	}
	if old != d.sh.truth[lpn] {
		return errf("%s mistranslated write of lpn %d: got ppn %d, truth %d",
			d.tr.Name(), lpn, old, d.sh.truth[lpn])
	}
	if err := d.maybeGC(); err != nil {
		return err
	}
	// GC may just have migrated this page; invalidate its current
	// location, not the pre-GC one returned by the translator.
	old = d.sh.truth[lpn]
	ppn, err := d.bm.alloc(blockData)
	if err != nil {
		return err
	}
	lat, err := d.chipProgram(ppn, flash.Meta{Kind: flash.KindData, Tag: int64(lpn), Seq: d.nextSeq()})
	if err != nil {
		return err
	}
	d.issuePage(ppn, lat, obs.OpDataProgram)
	d.reqData += lat
	d.m.FlashPrograms++
	if old.Valid() {
		if err := d.bm.invalidate(old); err != nil {
			return err
		}
	}
	d.sh.setTruth(lpn, ppn)
	return d.tr.Update(d, lpn, ppn)
}

// trimRequest discards the logical pages wholly covered by a TRIM request.
// Trims round inward: a partially-covered page keeps its data (discarding
// it would destroy bytes outside the trimmed range), so a sub-page trim is
// a no-op.
func (d *Device) trimRequest(req trace.Request) error {
	pageSize := int64(d.cfg.PageSize)
	first := (req.Offset + pageSize - 1) / pageSize
	last := req.End()/pageSize - 1
	lpn := LPN(first)
	for lpn <= LPN(last) {
		v := VTPNOf(lpn, d.entriesPerTP)
		end := LPNAt(v+1, 0, d.entriesPerTP) - 1
		if end > LPN(last) {
			end = LPN(last)
		}
		d.sched.BreakChain()
		if err := d.trimTP(v, lpn, end); err != nil {
			return err
		}
		lpn = end + 1
	}
	return nil
}

// trimTP makes the discard of [lo, hi] — all inside translation page v —
// durable, then applies it to the live state. The discard durability
// contract (a trimmed LPN must never resurrect its old data after a crash)
// forces a strict order: first rewrite the translation page with the
// trimmed slots cleared (read-modify-write + program, all fault-retried),
// and only once the program has succeeded invalidate the old translation
// page, the trimmed data pages and the live mapping. A power cut anywhere
// before that commit point aborts with no live state touched, so the device
// never exposes a discard that would not survive the crash — the exact dual
// of writePage, which updates truth only after its data program succeeded.
//
// Trims deliberately bypass WriteTP: WriteTP applies content updates to the
// persisted view before its program (safe for the valid mappings
// translators write back, where a premature entry only goes stale), but a
// premature Invalid would claim a discard is durable when the cut may have
// prevented exactly that.
func (d *Device) trimTP(v VTPN, lo, hi LPN) error {
	// Drop cached entries first: RAM-only state, lost in a crash anyway,
	// and a dirty entry for a trimmed page must never be written back.
	for lpn := lo; lpn <= hi; lpn++ {
		d.tr.Discard(lpn)
	}
	if err := d.maybeGC(); err != nil {
		return err
	}
	old := d.gtd[v]
	if old.Valid() {
		lat, err := d.chipRead(old)
		if err != nil {
			return err
		}
		d.issuePage(old, lat, obs.OpTransRead)
		d.m.FlashReads++
		d.m.TransReadsAT++
		if d.serving {
			d.reqWB += lat
		}
	}
	ppn, err := d.bm.alloc(blockTrans)
	if err != nil {
		return err
	}
	lat, err := d.chipProgram(ppn, flash.Meta{Kind: flash.KindTranslation, Tag: int64(v), Seq: d.nextSeq()})
	if err != nil {
		return err
	}
	d.issuePage(ppn, lat, obs.OpTransProgram)
	d.m.FlashPrograms++
	d.m.TransWritesAT++
	if d.serving {
		d.reqWB += lat
	}
	// Commit point: the cleared translation page is on flash.
	if old.Valid() {
		if err := d.bm.invalidate(old); err != nil {
			return err
		}
	}
	d.gtd[v] = ppn
	d.sh.fold(v)
	for lpn := lo; lpn <= hi; lpn++ {
		d.sh.setPersist(lpn, flash.InvalidPPN)
		if t := d.sh.truth[lpn]; t.Valid() {
			if err := d.bm.invalidate(t); err != nil {
				return err
			}
			d.sh.setTruth(lpn, flash.InvalidPPN)
			d.m.TrimmedPages++
		}
	}
	return nil
}

// flushMapping serves a host flush barrier: every dirty cached mapping
// entry is written back, so no acknowledged write's mapping lives only in
// RAM once the flush is acknowledged. (Data pages are always durable at
// acknowledgement in this device; recovery rebuilds their mapping from OOB
// metadata even without the writeback, but the flush bounds the recovery
// scan's exposure and is the contract sim.RunCrash verifies.) A flush that
// found nothing dirty is free; one that had to touch flash counts as a
// stall.
func (d *Device) flushMapping() error {
	base := d.m.FlashPrograms
	if err := d.tr.FlushDirty(d); err != nil {
		return err
	}
	if d.m.FlashPrograms > base {
		d.m.FlushStalls++
	}
	return nil
}

// issuePage charges one completed flash operation on p's die to the
// event-driven clock; issueBlock does the same for a block-level operation
// (erase). Operations run outside a request — Format, Precondition, and the
// GC they trigger — keep their metric attribution but are not scheduled:
// the measured timeline starts pristine, exactly as the scalar-clock device
// discarded pre-measurement latency.
func (d *Device) issuePage(p flash.PPN, lat time.Duration, op obs.Op) {
	d.issueDie(d.chip.DieOf(p), lat, op)
}

func (d *Device) issueBlock(b flash.BlockID, lat time.Duration, op obs.Op) {
	d.issueDie(d.chip.DieOfBlock(b), lat, op)
}

func (d *Device) issueDie(die int, lat time.Duration, op obs.Op) {
	if d.ph == phaseGC {
		d.m.GCTime += lat
		op = op.GC()
	}
	if d.serving {
		d.sched.IssueOp(die, lat, op)
	}
}

// --- Fault-tolerant chip access ------------------------------------------

// maxFaultRetries returns the per-operation retry budget for transient
// injected faults.
func (d *Device) maxFaultRetries() int {
	if d.cfg.FaultRetries > 0 {
		return d.cfg.FaultRetries
	}
	return 3
}

// retryOp runs one chip operation, retrying transient injected faults up to
// the configured budget. Every failed attempt still costs the operation's
// nominal latency (the die spent the time before reporting the failure),
// returned on top of the successful attempt's latency so the clock never
// under-counts. Non-transient errors — power cuts, NAND rule violations,
// worn-out blocks, exhausted retries — surface unchanged; the caller must
// abort its update without touching any mapping state it has not yet
// committed.
func (d *Device) retryOp(op func() (time.Duration, error), nominal time.Duration) (time.Duration, error) {
	var penalty time.Duration
	for attempt := 0; ; attempt++ {
		lat, err := op()
		if err == nil {
			return penalty + lat, nil
		}
		var fe *flash.FaultError
		if !errors.As(err, &fe) {
			return 0, err
		}
		d.m.InjectedFaults++
		if !fe.Transient || attempt >= d.maxFaultRetries() {
			return 0, err
		}
		d.m.FaultRetries++
		penalty += nominal
	}
}

func (d *Device) chipRead(p flash.PPN) (time.Duration, error) {
	return d.retryOp(func() (time.Duration, error) { return d.chip.Read(p) }, d.cfg.ReadLatency)
}

func (d *Device) chipProgram(p flash.PPN, m flash.Meta) (time.Duration, error) {
	return d.retryOp(func() (time.Duration, error) { return d.chip.Program(p, m) }, d.cfg.WriteLatency)
}

func (d *Device) chipErase(blk flash.BlockID) (time.Duration, error) {
	return d.retryOp(func() (time.Duration, error) { return d.chip.Erase(blk) }, d.cfg.EraseLatency)
}

// --- Env implementation -------------------------------------------------

// EntriesPerTP implements Env.
func (d *Device) EntriesPerTP() int { return d.entriesPerTP }

// NumTPs implements Env.
func (d *Device) NumTPs() int { return d.numTPs }

// NumLPNs implements Env.
func (d *Device) NumLPNs() int64 { return d.logicalPages }

// ReadTP implements Env: it reads translation page v from flash and returns
// its entries. If the page has never been written (unformatted device), no
// flash operation is charged.
func (d *Device) ReadTP(v VTPN) ([]flash.PPN, error) {
	if v < 0 || int(v) >= d.numTPs {
		return nil, errf("ReadTP: vtpn %d out of range [0,%d)", v, d.numTPs)
	}
	if phys := d.gtd[v]; phys.Valid() {
		lat, err := d.chipRead(phys)
		if err != nil {
			return nil, err
		}
		d.issuePage(phys, lat, obs.OpTransRead)
		d.m.FlashReads++
		if d.ph == phaseGC {
			d.m.TransReadsGC++
		} else {
			d.m.TransReadsAT++
			if d.serving {
				d.reqXlate += lat
			}
		}
	}
	n := copy(d.tpBuf, d.sh.persistedTP(v))
	for i := n; i < d.entriesPerTP; i++ {
		d.tpBuf[i] = flash.InvalidPPN
	}
	return d.tpBuf, nil
}

// WriteTP implements Env: a translation-page update. Without fullPage it is
// a read-modify-write (Tfr+Tfw, Eq. 1); with fullPage only the program is
// charged (S-FTL's whole-page writeback).
func (d *Device) WriteTP(v VTPN, updates []EntryUpdate, fullPage bool) error {
	if v < 0 || int(v) >= d.numTPs {
		return errf("WriteTP: vtpn %d out of range [0,%d)", v, d.numTPs)
	}
	// Validate every update before applying any: a bad one must leave the
	// persisted view untouched, or recovery's trim rule would read content
	// no program ever wrote.
	base := int64(v) * int64(d.entriesPerTP)
	for _, u := range updates {
		if u.Off < 0 || u.Off >= d.entriesPerTP {
			return errf("WriteTP: offset %d out of range", u.Off)
		}
		if base+int64(u.Off) >= d.logicalPages {
			return errf("WriteTP: update beyond logical space (vtpn %d off %d)", v, u.Off)
		}
	}
	// Apply the content updates before anything that can trigger GC: a GC
	// run below may itself update this page's persisted entries with
	// fresher values (migrated data pages), which must not be overwritten
	// by the caller's older snapshot afterwards.
	for _, u := range updates {
		d.sh.setPersist(LPN(base+int64(u.Off)), u.PPN)
	}
	// The fresh physical copy opportunistically persists any mapping whose
	// writeback was still pending (see shadow.fold); unmapped slots after
	// this point are durable discards.
	d.sh.fold(v)
	if err := d.maybeGC(); err != nil {
		return err
	}
	old := d.gtd[v]
	if old.Valid() && !fullPage {
		lat, err := d.chipRead(old)
		if err != nil {
			return err
		}
		d.issuePage(old, lat, obs.OpTransRead)
		d.m.FlashReads++
		if d.ph == phaseGC {
			d.m.TransReadsGC++
		} else {
			d.m.TransReadsAT++
			if d.serving {
				d.reqWB += lat
			}
		}
	}
	ppn, err := d.bm.alloc(blockTrans)
	if err != nil {
		return err
	}
	lat, err := d.chipProgram(ppn, flash.Meta{Kind: flash.KindTranslation, Tag: int64(v), Seq: d.nextSeq()})
	if err != nil {
		return err
	}
	d.issuePage(ppn, lat, obs.OpTransProgram)
	d.m.FlashPrograms++
	if d.ph == phaseGC {
		d.m.TransWritesGC++
	} else {
		d.m.TransWritesAT++
		if d.serving {
			d.reqWB += lat
		}
	}
	if old.Valid() {
		if err := d.bm.invalidate(old); err != nil {
			return err
		}
	}
	d.gtd[v] = ppn
	return nil
}

// NoteLookup implements Env.
func (d *Device) NoteLookup(hit bool) {
	d.m.Lookups++
	if hit {
		d.m.Hits++
	} else if d.serving && d.ph != phaseGC {
		d.reqMiss = true
	}
}

// NoteReplacement implements Env.
func (d *Device) NoteReplacement(dirty bool) {
	d.m.Replacements++
	if dirty {
		d.m.DirtyReplaced++
	}
}

// NoteGCMapUpdate implements Env.
func (d *Device) NoteGCMapUpdate(hit bool) {
	d.m.GCMapUpdates++
	if hit {
		d.m.GCMapHits++
	}
}

// NoteBatchWriteback implements Env.
func (d *Device) NoteBatchWriteback(cleaned int) {
	if cleaned > 0 {
		d.m.BatchWritebacks++
		d.m.BatchCleaned += int64(cleaned)
	}
}

// NotePrefetch records entries loaded beyond the demanded one; used by
// prefetching translators.
func (d *Device) NotePrefetch(n int) {
	d.m.PrefetchedLoaded += int64(n)
	if n > 0 && d.serving && d.ph != phaseGC {
		d.reqPrefetch = true
	}
}

// nextSeq returns the next program sequence number; every programmed page
// carries one in its OOB metadata so crash recovery can order versions.
func (d *Device) nextSeq() int64 {
	d.seq++
	return d.seq
}

// --- Verification helpers (tests) ----------------------------------------

// Truth returns the ground-truth PPN for lpn.
func (d *Device) Truth(lpn LPN) flash.PPN { return d.sh.truth[lpn] }

// Persisted returns the PPN recorded in flash translation pages for lpn.
func (d *Device) Persisted(lpn LPN) flash.PPN { return d.sh.persist[lpn] }

// GTDEntry returns the physical page of translation page v.
func (d *Device) GTDEntry(v VTPN) flash.PPN { return d.gtd[v] }

// EraseSpread returns the minimum and maximum per-block erase counts — the
// wear imbalance that wear leveling bounds.
func (d *Device) EraseSpread() (min, max int) {
	n := d.chip.Config().NumBlocks
	if n == 0 {
		return 0, 0
	}
	min = d.chip.EraseCount(0)
	for b := 1; b < n; b++ {
		ec := d.chip.EraseCount(flash.BlockID(b))
		if ec < min {
			min = ec
		}
		if ec > max {
			max = ec
		}
	}
	return min, max
}

// CheckConsistency validates the device-wide invariants: chip bookkeeping,
// GTD pointing at valid translation pages, and — given the set of
// dirty-cached LPNs from the translator — the truth/persist relationship:
// truth differs from persist exactly for LPNs with a dirty cached entry. The
// shadow's pending bitmap is recounted against its predicate on every call.
func (d *Device) CheckConsistency(dirtyCached map[LPN]flash.PPN) error {
	if err := d.chip.CheckInvariants(); err != nil {
		return err
	}
	for v, ppn := range d.gtd {
		if !ppn.Valid() {
			continue
		}
		if st := d.chip.State(ppn); st != flash.PageValid {
			return errf("gtd[%d] = %d in state %v", v, ppn, st)
		}
		if m := d.chip.MetaOf(ppn); m.Kind != flash.KindTranslation || m.Tag != int64(v) {
			return errf("gtd[%d] = %d has meta %+v", v, ppn, m)
		}
	}
	return d.sh.check(d.chip, dirtyCached)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
