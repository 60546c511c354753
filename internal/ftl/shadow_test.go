package ftl_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/ftl/dftl"
	"repro/internal/trace"
)

// refFold is the full-scan fold the shadow's pending-bitmap fold replaced,
// kept as the reference implementation: every slot of translation page v
// whose persisted entry is unmapped while the live mapping is valid takes
// the live value. It reports how many slots it changed.
func refFold(persist, truth []flash.PPN, v, entriesPerTP int) int {
	lo := int64(v) * int64(entriesPerTP)
	hi := lo + int64(entriesPerTP)
	if n := int64(len(persist)); hi > n {
		hi = n
	}
	changed := 0
	for lpn := lo; lpn < hi; lpn++ {
		if persist[lpn] == flash.InvalidPPN && truth[lpn].Valid() {
			persist[lpn] = truth[lpn]
			changed++
		}
	}
	return changed
}

// foldMirror advances a reference copy of the device's persisted view with
// refFold, from what a translator and its Env can observe.
//
// Every fold coincides with a new physical copy of its translation page,
// so a GTD entry that moved since the last sync marks a fold. Between two
// syncs the truth changes only in ways the mirror can place: a data write
// sets its LPN just before Update, a GC data migration just before
// OnGCDataMoves, and a trim clears its LPNs just after its page's fold. The
// mirror syncs on every translator and Env call, so each fold it replays
// sees the truth of the previous sync — the truth the device folded with.
type foldMirror struct {
	d       *ftl.Device
	persist []flash.PPN // reference persisted view
	truth   []flash.PPN // device truth at the last sync
	gtd     []flash.PPN // device GTD at the last sync
	folded  int         // slots refFold changed: the test is not vacuous
}

func newFoldMirror(d *ftl.Device) *foldMirror {
	n := d.NumLPNs()
	m := &foldMirror{
		d:       d,
		persist: make([]flash.PPN, n),
		truth:   make([]flash.PPN, n),
		gtd:     make([]flash.PPN, d.NumTPs()),
	}
	for lpn := range m.persist {
		m.persist[lpn] = d.Persisted(ftl.LPN(lpn))
		m.truth[lpn] = d.Truth(ftl.LPN(lpn))
	}
	for v := range m.gtd {
		m.gtd[v] = d.GTDEntry(ftl.VTPN(v))
	}
	return m
}

// sync replays the folds of every translation page programmed since the
// last sync, then the trims that unmapped LPNs after their page's fold. A
// nil mirror (device set-up, before the reference starts) does nothing.
func (m *foldMirror) sync() {
	if m == nil {
		return
	}
	for v := range m.gtd {
		if cur := m.d.GTDEntry(ftl.VTPN(v)); cur != m.gtd[v] {
			m.folded += refFold(m.persist, m.truth, v, m.d.EntriesPerTP())
			m.gtd[v] = cur
		}
	}
	for lpn := range m.truth {
		cur := m.d.Truth(ftl.LPN(lpn))
		if m.truth[lpn].Valid() && !cur.Valid() {
			m.persist[lpn] = flash.InvalidPPN
		}
		m.truth[lpn] = cur
	}
}

// writeTP mirrors Device.WriteTP: the content updates, then the fold.
func (m *foldMirror) writeTP(v ftl.VTPN, updates []ftl.EntryUpdate) {
	if m == nil {
		return
	}
	m.sync()
	base := int64(v) * int64(m.d.EntriesPerTP())
	for _, u := range updates {
		m.persist[base+int64(u.Off)] = u.PPN
	}
	m.folded += refFold(m.persist, m.truth, int(v), m.d.EntriesPerTP())
}

// mirrorTranslator wraps a translator so the mirror syncs on every call
// the device makes into it and sees every WriteTP it issues. It forwards
// the optional interfaces the device and the consistency check use.
type mirrorTranslator struct {
	inner ftl.Translator
	m     *foldMirror
	env   mirrorEnv
}

func (t *mirrorTranslator) wrap(env ftl.Env) ftl.Env {
	t.env.Env, t.env.m = env, t.m
	return &t.env
}

func (t *mirrorTranslator) Name() string { return t.inner.Name() }

func (t *mirrorTranslator) Translate(env ftl.Env, lpn ftl.LPN) (flash.PPN, error) {
	t.m.sync()
	defer t.m.sync()
	return t.inner.Translate(t.wrap(env), lpn)
}

func (t *mirrorTranslator) Update(env ftl.Env, lpn ftl.LPN, ppn flash.PPN) error {
	t.m.sync()
	defer t.m.sync()
	return t.inner.Update(t.wrap(env), lpn, ppn)
}

func (t *mirrorTranslator) BeginRequest(first, last ftl.LPN, write bool) {
	t.m.sync()
	t.inner.BeginRequest(first, last, write)
}

func (t *mirrorTranslator) OnGCDataMoves(env ftl.Env, moves []ftl.GCMove) error {
	t.m.sync()
	defer t.m.sync()
	return t.inner.OnGCDataMoves(t.wrap(env), moves)
}

func (t *mirrorTranslator) Discard(lpn ftl.LPN) {
	t.m.sync()
	t.inner.Discard(lpn)
}

func (t *mirrorTranslator) FlushDirty(env ftl.Env) error {
	t.m.sync()
	defer t.m.sync()
	return t.inner.FlushDirty(t.wrap(env))
}

func (t *mirrorTranslator) SetGeometry(entriesPerTP int) {
	if g, ok := t.inner.(ftl.GeometryAware); ok {
		g.SetGeometry(entriesPerTP)
	}
}

func (t *mirrorTranslator) DirtyCached() map[ftl.LPN]flash.PPN {
	return t.inner.(interface {
		DirtyCached() map[ftl.LPN]flash.PPN
	}).DirtyCached()
}

func (t *mirrorTranslator) CheckInvariants() error {
	return t.inner.(interface{ CheckInvariants() error }).CheckInvariants()
}

// mirrorEnv is the Env the wrapped translator sees.
type mirrorEnv struct {
	ftl.Env
	m *foldMirror
}

func (e *mirrorEnv) WriteTP(v ftl.VTPN, updates []ftl.EntryUpdate, fullPage bool) error {
	e.m.writeTP(v, updates)
	defer e.m.sync()
	return e.Env.WriteTP(v, updates, fullPage)
}

func (e *mirrorEnv) NotePrefetch(n int) {
	e.Env.(interface{ NotePrefetch(int) }).NotePrefetch(n)
}

// TestShadowFoldMatchesFullScan drives seeded random writes, FUA writes,
// trims, flushes and GC-forcing fills through DFTL and TPFTL devices and,
// after every operation, checks the persisted view against a copy advanced
// by the reference full-scan fold, and the pending bitmap against the fold
// predicate recounted by brute force. The 100-byte geometry has 25 entries
// per translation page, so pages straddle bitmap words, and a partial last
// page.
func TestShadowFoldMatchesFullScan(t *testing.T) {
	geometries := []struct {
		name     string
		pageSize int
		pages    int64
	}{
		{"4KB-partial-last-TP", ftl.DefaultPageBytes, 2500},
		{"100B-25-entries", 100, 2010},
	}
	translators := []struct {
		name string
		make func(cacheBytes int64) ftl.Translator
	}{
		{"DFTL", func(c int64) ftl.Translator { return dftl.New(dftl.Config{CacheBytes: c}) }},
		{"TPFTL", func(c int64) ftl.Translator { return core.New(core.Config{CacheBytes: c}) }},
	}
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for _, g := range geometries {
		for _, tc := range translators {
			for seed := int64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", g.name, tc.name, seed), func(t *testing.T) {
					cfg := ftl.Config{
						LogicalBytes:  g.pages * int64(g.pageSize),
						PageSize:      g.pageSize,
						PagesPerBlock: 32,
						OverProvision: 0.15,
						CacheBytes:    512,
					}
					runShadowProperty(t, cfg, tc.make(cfg.CacheBytes), seed)
				})
			}
		}
	}
}

// checkPending recounts the fold predicate for every LPN and fails where
// the device's pending bitmap disagrees.
func checkPending(t *testing.T, d *ftl.Device, when string) {
	t.Helper()
	for lpn := ftl.LPN(0); lpn < ftl.LPN(d.NumLPNs()); lpn++ {
		pred := d.Persisted(lpn) == flash.InvalidPPN && d.Truth(lpn).Valid()
		if bit := d.PendingBit(lpn); bit != pred {
			t.Fatalf("%s: lpn %d pending bit %v, predicate %v", when, lpn, bit, pred)
		}
	}
}

func runShadowProperty(t *testing.T, cfg ftl.Config, inner ftl.Translator, seed int64) {
	tr := &mirrorTranslator{inner: inner}
	d, err := ftl.NewDevice(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Format(); err != nil {
		t.Fatal(err)
	}
	checkPending(t, d, "after Format")
	if err := d.Precondition(int(cfg.LogicalPages()), seed); err != nil {
		t.Fatal(err)
	}
	checkPending(t, d, "after Precondition")
	tr.m = newFoldMirror(d)

	ps := int64(cfg.PageSize)
	n := cfg.LogicalPages()
	hot := n / 8 // trims and rewrites concentrate here, leaving slots pending
	rng := rand.New(rand.NewSource(seed))
	var arrival int64
	serve := func(op trace.Op, first, pages int64) {
		t.Helper()
		if first+pages > n {
			pages = n - first
		}
		arrival++
		req := trace.Request{Arrival: arrival, Offset: first * ps, Length: pages * ps, Op: op}
		if op == trace.OpFlush {
			req.Offset, req.Length = 0, 0
		}
		if _, err := d.Serve(req); err != nil {
			t.Fatalf("%v [%d,+%d): %v", op, first, pages, err)
		}
		tr.m.sync()
		when := fmt.Sprintf("after %v [%d,+%d)", op, first, pages)
		for lpn := int64(0); lpn < n; lpn++ {
			if got, want := d.Persisted(ftl.LPN(lpn)), tr.m.persist[lpn]; got != want {
				t.Fatalf("%s: lpn %d persisted %d, reference fold %d", when, lpn, got, want)
			}
		}
		checkPending(t, d, when)
	}
	for i := 0; i < 1500; i++ {
		switch r := rng.Intn(100); {
		case r < 45:
			serve(trace.OpWrite, rng.Int63n(hot), 1+rng.Int63n(4))
		case r < 55:
			serve(trace.OpWriteFUA, rng.Int63n(n), 1+rng.Int63n(4))
		case r < 75:
			serve(trace.OpTrim, rng.Int63n(hot), 1+rng.Int63n(40))
		case r < 85:
			serve(trace.OpFlush, 0, 0)
		case r < 97:
			serve(trace.OpRead, rng.Int63n(n), 1+rng.Int63n(4))
		default:
			// A fill rewrites a long stretch one page at a time: enough
			// programs to force several garbage collections.
			first := rng.Int63n(n)
			for p := first; p < first+200 && p < n; p++ {
				serve(trace.OpWrite, p, 1)
			}
		}
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
	if m := d.Metrics(); m.GCDataCollections == 0 || m.TrimmedPages == 0 {
		t.Fatalf("sequence too tame: %d data GCs, %d trimmed pages", m.GCDataCollections, m.TrimmedPages)
	}
	if tr.m.folded == 0 {
		t.Fatal("no fold changed a slot: pending slots never arose")
	}
}

// TestReadTPViewPartialLastPage pins the shape of the view ReadTP returns on
// a geometry whose last translation page is partial (2500 LPNs, 1024 per
// page): every page, the partial one included, reads back exactly
// EntriesPerTP entries, capped so an append cannot reach the next page; the
// in-range slots equal the persisted view and every slot past the last LPN
// is InvalidPPN. It holds after Format and after writes, trims, flushes and
// garbage collection have rewritten every page, the last one included.
func TestReadTPViewPartialLastPage(t *testing.T) {
	cfg := testConfig()
	cfg.LogicalBytes = 2500 * int64(cfg.PageSize)
	d, tr := newDFTLDevice(t, cfg)
	e, n := d.EntriesPerTP(), d.NumLPNs()
	if n%int64(e) == 0 {
		t.Fatalf("%d LPNs fill %d-entry pages exactly; the last page is not partial", n, e)
	}
	check := func(when string) {
		t.Helper()
		for v := ftl.VTPN(0); int(v) < d.NumTPs(); v++ {
			vals, err := d.ReadTP(v)
			if err != nil {
				t.Fatal(err)
			}
			if len(vals) != e || cap(vals) != e {
				t.Fatalf("%s: ReadTP(%d) len %d cap %d, want %d", when, v, len(vals), cap(vals), e)
			}
			for off, got := range vals {
				want := flash.InvalidPPN
				if lpn := ftl.LPNAt(v, off, e); int64(lpn) < n {
					want = d.Persisted(lpn)
				}
				if got != want {
					t.Fatalf("%s: ReadTP(%d)[%d] = %d, want %d", when, v, off, got, want)
				}
			}
		}
	}
	check("after Format")
	rng := rand.New(rand.NewSource(5))
	for i := int64(0); i < 6000; i++ {
		req := wr(i, rng.Int63n(n))
		switch rng.Intn(20) {
		case 0:
			first := rng.Int63n(n)
			req = trace.Request{Arrival: i, Offset: first * 4096, Length: min(16, n-first) * 4096, Op: trace.OpTrim}
		case 1:
			req = trace.Request{Arrival: i, Op: trace.OpFlush}
		}
		if _, err := d.Serve(req); err != nil {
			t.Fatal(err)
		}
	}
	if m := d.Metrics(); m.GCDataCollections == 0 || m.TrimmedPages == 0 {
		t.Fatalf("sequence too tame: %d data GCs, %d trimmed pages", m.GCDataCollections, m.TrimmedPages)
	}
	check("after writes, trims, flushes and GC")
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}

// viewCorruptor is a DFTL that breaks the ReadTP contract once armed: on
// its next Translate it writes a wrong PPN into the view ReadTP returns for
// target's translation page.
type viewCorruptor struct {
	*dftl.FTL
	target ftl.LPN // -1 when disarmed
}

func (c *viewCorruptor) Translate(env ftl.Env, lpn ftl.LPN) (flash.PPN, error) {
	ppn, err := c.FTL.Translate(env, lpn)
	if err != nil || c.target < 0 {
		return ppn, err
	}
	e := env.EntriesPerTP()
	vals, err := env.ReadTP(ftl.VTPNOf(c.target, e))
	if err != nil {
		return flash.InvalidPPN, err
	}
	vals[ftl.OffOf(c.target, e)]++
	c.target = -1
	return ppn, nil
}

// TestReadTPViewWriteCaught shows that the existing consistency check
// guards the shared view: ReadTP hands out the shadow's persisted content
// itself, so a translator that writes into it changes what the device
// believes is on flash, and CheckConsistency (or, under ftlsan, the
// per-operation check) reports the slot whose persisted entry no longer
// matches the truth while no dirty cached entry accounts for it.
func TestReadTPViewWriteCaught(t *testing.T) {
	cfg := testConfig()
	tr := &viewCorruptor{FTL: dftl.New(dftl.Config{CacheBytes: cfg.CacheBytes}), target: -1}
	d, err := ftl.NewDevice(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Format(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		if _, err := d.Serve(wr(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatalf("consistent before the corruption: %v", err)
	}
	const target = 3000
	if _, dirty := tr.DirtyCached()[target]; dirty {
		t.Fatalf("lpn %d has a dirty cached entry; pick a clean slot", target)
	}
	tr.target = target
	_, err = d.Serve(rd(200, 10))
	if err == nil {
		err = d.CheckConsistency(tr.DirtyCached())
	}
	if err == nil {
		t.Fatal("a write into the ReadTP view went unnoticed")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("lpn %d:", target)) {
		t.Fatalf("error %q does not name lpn %d", err, target)
	}
}
