package main

import (
	"sort"
	"time"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/trace"
)

// layer is one boundary the traced run times from outside the program.
type layer int

const (
	layerDecode  layer = iota // trace.Iterator.Next on the binary stream
	layerServe                // ftl.Device.Serve (serial workloads only)
	layerXlate                // Translator.Translate/Update/BeginRequest/FlushDirty/Discard
	layerXlateGC              // Translator.OnGCDataMoves
	layerTPRead               // Env.ReadTP
	layerTPWrite              // Env.WriteTP (includes the verification-shadow fold)
	layerCheck                // Device.CheckConsistency
	numLayers
)

var layerNames = [numLayers]string{"decode", "serve", "translate", "translate_gc", "tp_read", "tp_write", "check"}

// epoch anchors now(); monotonic nanoseconds since process start are cheap
// (one vDSO clock read) and never go backwards.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// clockCost is the median time between two back-to-back now() calls: the
// share of a timed interval that is the clock itself. Sampled Discard
// timings subtract it before their mean is charged to the untimed calls,
// which never paid it.
var clockCost = func() int64 {
	const n = 1001
	d := make([]int64, n)
	for i := range d {
		t := now()
		d[i] = now() - t
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[n/2]
}()

// discardSampleEvery is the Discard timing stride. DFTL's trim path calls
// Discard once per trimmed page (about ten times per request on
// fstrim-dftl), and the call is a map delete, so timing every call would
// cost more than the call itself. One call in this many is timed and the
// rest are charged the sampled mean (see collector.settleDiscards).
const discardSampleEvery = 64

// frame is one open timed call on a collector's stack.
type frame struct {
	l     layer
	start int64
	child int64 // time covered by nested timed calls
	span  int32 // index into spans, -1 when not recorded
}

// span is one recorded timed call: the full record kept for a bounded
// window of requests.
type span struct {
	l          layer
	start, end int64
	parent     int32
	req        int64
}

// collector aggregates per-layer self time and call counts in fixed
// counters. One collector belongs to one goroutine: the replay goroutine,
// or one shard's worker through that shard's translator shim.
type collector struct {
	self  [numLayers]int64
	calls [numLayers]int64
	// busy is the summed duration of outermost frames: the wall time this
	// goroutine spent inside timed calls.
	busy  int64
	stack []frame

	// Counts recorded at the translator's Env boundary.
	lookups, hits              int64
	replacements, dirtyReplace int64

	discards       int64 // Discard calls, sampled or not
	discardSampled int64 // sampled calls
	discardSampleT int64 // their summed duration

	// req is the current request (or shard fragment) number; spans are
	// kept for requests in [spanLo, spanHi) until spans is full.
	req            int64
	spanLo, spanHi int64
	spans          []span
}

// maxSpans bounds one collector's span log.
const maxSpans = 1 << 14

func newCollector(spanLo, spanHi int64) *collector {
	return &collector{stack: make([]frame, 0, 16), spanLo: spanLo, spanHi: spanHi}
}

// reset zeroes the counters (not the span log) at the start of the
// measured replay window.
func (c *collector) reset() {
	c.self, c.calls = [numLayers]int64{}, [numLayers]int64{}
	c.busy = 0
	c.lookups, c.hits, c.replacements, c.dirtyReplace = 0, 0, 0, 0
	c.discards, c.discardSampled, c.discardSampleT = 0, 0, 0
}

func (c *collector) enter(l layer) {
	f := frame{l: l, span: -1}
	if c.req >= c.spanLo && c.req < c.spanHi && len(c.spans) < maxSpans {
		parent := int32(-1)
		if n := len(c.stack); n > 0 {
			parent = c.stack[n-1].span
		}
		f.span = int32(len(c.spans))
		c.spans = append(c.spans, span{l: l, parent: parent, req: c.req})
	}
	f.start = now()
	if f.span >= 0 {
		c.spans[f.span].start = f.start
	}
	c.stack = append(c.stack, f)
}

func (c *collector) exit() {
	t := now()
	n := len(c.stack) - 1
	f := c.stack[n]
	c.stack = c.stack[:n]
	d := t - f.start
	c.self[f.l] += d - f.child
	c.calls[f.l]++
	if n > 0 {
		c.stack[n-1].child += d
	} else {
		c.busy += d
	}
	if f.span >= 0 {
		c.spans[f.span].end = t
	}
}

// settleDiscards moves the estimated time of the untimed Discard calls,
// their count times the sampled mean, from Serve's self time to the
// translator's. The device calls Discard only from its trim path inside
// Serve; sampled calls were already charged as they ran.
func (c *collector) settleDiscards() {
	unsampled := c.discards - c.discardSampled
	if c.discardSampled == 0 || unsampled == 0 {
		return
	}
	mean := c.discardSampleT/c.discardSampled - clockCost
	if mean < 0 {
		mean = 0
	}
	est := unsampled * mean
	c.self[layerXlate] += est
	c.self[layerServe] -= est
	c.calls[layerXlate] += unsampled
	c.discardSampled = c.discards
}

// tracedTranslator wraps an ftl.Translator and times every call the device
// makes into it. It forwards every optional interface the program
// type-asserts on a translator, so the device behaves exactly as it does
// with the bare translator.
type tracedTranslator struct {
	inner ftl.Translator
	c     *collector
	env   tracedEnv
	// numberRequests makes BeginRequest advance c.req. A shard's
	// translator sees fragments, not host requests, so on the sharded
	// workload spans are numbered by the shard's fragment count.
	numberRequests bool
}

func newTracedTranslator(inner ftl.Translator, c *collector, numberRequests bool) *tracedTranslator {
	return &tracedTranslator{inner: inner, c: c, env: tracedEnv{c: c}, numberRequests: numberRequests}
}

// wrap returns the timing Env around the device's own. A device always
// passes itself, so the wrapper is built once and reused.
func (t *tracedTranslator) wrap(env ftl.Env) ftl.Env {
	t.env.inner = env
	return &t.env
}

func (t *tracedTranslator) Name() string { return t.inner.Name() }

func (t *tracedTranslator) Translate(env ftl.Env, lpn ftl.LPN) (flash.PPN, error) {
	t.c.enter(layerXlate)
	p, err := t.inner.Translate(t.wrap(env), lpn)
	t.c.exit()
	return p, err
}

func (t *tracedTranslator) Update(env ftl.Env, lpn ftl.LPN, ppn flash.PPN) error {
	t.c.enter(layerXlate)
	err := t.inner.Update(t.wrap(env), lpn, ppn)
	t.c.exit()
	return err
}

// BeginRequest opens every read or write request (or shard fragment).
func (t *tracedTranslator) BeginRequest(first, last ftl.LPN, write bool) {
	if t.numberRequests {
		t.c.req++
	}
	t.c.enter(layerXlate)
	t.inner.BeginRequest(first, last, write)
	t.c.exit()
}

func (t *tracedTranslator) OnGCDataMoves(env ftl.Env, moves []ftl.GCMove) error {
	t.c.enter(layerXlateGC)
	err := t.inner.OnGCDataMoves(t.wrap(env), moves)
	t.c.exit()
	return err
}

// Discard is timed one call in discardSampleEvery; see discardSampleEvery.
func (t *tracedTranslator) Discard(lpn ftl.LPN) {
	c := t.c
	if c.discards%discardSampleEvery != 0 {
		c.discards++
		t.inner.Discard(lpn)
		return
	}
	c.discards++
	start := now()
	t.inner.Discard(lpn)
	d := now() - start
	c.discardSampled++
	c.discardSampleT += d
	c.self[layerXlate] += d
	c.calls[layerXlate]++
	if n := len(c.stack); n > 0 {
		c.stack[n-1].child += d
	} else {
		c.busy += d
	}
}

func (t *tracedTranslator) FlushDirty(env ftl.Env) error {
	t.c.enter(layerXlate)
	err := t.inner.FlushDirty(t.wrap(env))
	t.c.exit()
	return err
}

// SetGeometry forwards ftl.GeometryAware, which ftl.NewDevice calls.
func (t *tracedTranslator) SetGeometry(entriesPerTP int) {
	if g, ok := t.inner.(ftl.GeometryAware); ok {
		g.SetGeometry(entriesPerTP)
	}
}

// Warm forwards ftl.Warmer.
func (t *tracedTranslator) Warm(persisted func(ftl.LPN) flash.PPN) {
	if w, ok := t.inner.(ftl.Warmer); ok {
		w.Warm(persisted)
	}
}

// Snapshot forwards ftl.Inspector.
func (t *tracedTranslator) Snapshot() ftl.CacheSnapshot {
	if i, ok := t.inner.(ftl.Inspector); ok {
		return i.Snapshot()
	}
	return ftl.CacheSnapshot{}
}

// DirtyCached forwards the dirty-entry set CheckConsistency cross-checks
// truth against persist with; nil, like a bare translator without it,
// disables that check.
func (t *tracedTranslator) DirtyCached() map[ftl.LPN]flash.PPN {
	if d, ok := t.inner.(interface {
		DirtyCached() map[ftl.LPN]flash.PPN
	}); ok {
		return d.DirtyCached()
	}
	return nil
}

// CheckInvariants forwards the translator self-check that -tags ftlsan
// builds run after every request.
func (t *tracedTranslator) CheckInvariants() error {
	if ci, ok := t.inner.(interface{ CheckInvariants() error }); ok {
		return ci.CheckInvariants()
	}
	return nil
}

// tracedEnv is the Env a traced translator sees: it times translation-page
// I/O and counts cache lookups and replacements, forwarding every call to
// the device.
type tracedEnv struct {
	inner ftl.Env
	c     *collector
}

func (e *tracedEnv) EntriesPerTP() int { return e.inner.EntriesPerTP() }
func (e *tracedEnv) NumTPs() int       { return e.inner.NumTPs() }
func (e *tracedEnv) NumLPNs() int64    { return e.inner.NumLPNs() }

func (e *tracedEnv) ReadTP(v ftl.VTPN) ([]flash.PPN, error) {
	e.c.enter(layerTPRead)
	p, err := e.inner.ReadTP(v)
	e.c.exit()
	return p, err
}

func (e *tracedEnv) WriteTP(v ftl.VTPN, updates []ftl.EntryUpdate, fullPage bool) error {
	e.c.enter(layerTPWrite)
	err := e.inner.WriteTP(v, updates, fullPage)
	e.c.exit()
	return err
}

func (e *tracedEnv) NoteLookup(hit bool) {
	e.c.lookups++
	if hit {
		e.c.hits++
	}
	e.inner.NoteLookup(hit)
}

func (e *tracedEnv) NoteReplacement(dirty bool) {
	e.c.replacements++
	if dirty {
		e.c.dirtyReplace++
	}
	e.inner.NoteReplacement(dirty)
}

func (e *tracedEnv) NoteGCMapUpdate(hit bool)       { e.inner.NoteGCMapUpdate(hit) }
func (e *tracedEnv) NoteBatchWriteback(cleaned int) { e.inner.NoteBatchWriteback(cleaned) }

// NotePrefetch forwards the optional prefetch counter that TPFTL, CDFTL,
// S-FTL and ZFTL type-assert on their Env.
func (e *tracedEnv) NotePrefetch(n int) {
	if p, ok := e.inner.(interface{ NotePrefetch(int) }); ok {
		p.NotePrefetch(n)
	}
}

// decodeIter times every pull from the binary stream. It forwards the
// stream's MaxEnd and Records hints, which size preconditioning and the
// live plane's run info.
type decodeIter struct {
	st *trace.Stream
	c  *collector
}

func (d *decodeIter) Next(batch []trace.Request) (int, error) {
	d.c.enter(layerDecode)
	n, err := d.st.Next(batch)
	d.c.exit()
	return n, err
}

func (d *decodeIter) MaxEnd() int64  { return d.st.MaxEnd() }
func (d *decodeIter) Records() int64 { return d.st.Records() }
