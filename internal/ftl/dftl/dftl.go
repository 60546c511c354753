// Package dftl implements DFTL (Gupta et al., ASPLOS 2009), the first
// demand-based page-level FTL and the baseline of the TPFTL paper.
//
// DFTL caches individual mapping entries (8 B each) in a segmented LRU list
// (a probationary segment absorbs one-touch entries; re-referenced entries
// are promoted to a protected segment). On a miss the requested entry — and
// only it — is loaded from its translation page. On eviction of a dirty
// entry, only that entry is written back (a read-modify-write of its
// translation page); the paper's §3.2 identifies this per-entry writeback as
// DFTL's key inefficiency. During GC, mapping updates for migrated data
// pages that share a translation page are batched into one update, as in the
// original DFTL design.
//
// The service path neither hashes nor allocates. Cached entries are found
// through a dense table indexed by LPN, and the per-page writeback batches of
// GC and flush barriers are sorted in scratch slices the translator owns.
// Only DirtyCached and Snapshot build maps, because their interfaces return
// them.
package dftl

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/lru"
)

// entry is one cached mapping entry.
type entry struct {
	node      lru.Node[*entry]
	lpn       ftl.LPN
	ppn       flash.PPN
	dirty     bool
	protected bool
}

// Config tunes the cache.
type Config struct {
	// CacheBytes is the mapping-cache budget.
	CacheBytes int64
	// ProtectedFraction of the budget is reserved for the protected
	// segment of the segmented LRU (default 0.5).
	ProtectedFraction float64
	// EntryBytes is the RAM cost per cached entry (default 8).
	EntryBytes int
}

// FTL is the DFTL translator. Create with New.
type FTL struct {
	cfg      Config
	capacity int // max cached entries

	// byLPN is the entry index: a dense table indexed by LPN (nil = not
	// cached), grown by doubling as entries are installed and capped at
	// the device's LPN count, so it costs at most 8 B per LPN. A map here
	// put a hash lookup on every Translate and on every trimmed page's
	// Discard, most of which miss. n counts the cached entries.
	byLPN []*entry
	n     int
	prob  lru.List[*entry] // probationary segment, MRU..LRU
	prot  lru.List[*entry] // protected segment, MRU..LRU

	protCap int

	// slab recycles entries and evictUp is the single-update writeback
	// scratch, so the steady-state miss/evict cycle allocates nothing.
	slab    entrySlab
	evictUp [1]ftl.EntryUpdate

	// gcBatch backs OnGCDataMoves' per-page writebacks and flushBatch
	// FlushDirty's. They must be distinct: a flush writeback can trigger
	// GC, which re-enters through OnGCDataMoves while the flush batch is
	// still being written.
	gcBatch    pageBatch
	flushBatch pageBatch

	ePerTP int // learned from the Env; snapshot grouping granularity
}

var _ ftl.Translator = (*FTL)(nil)
var _ ftl.Inspector = (*FTL)(nil)

// New returns a DFTL instance with the given cache budget.
func New(cfg Config) *FTL {
	if cfg.EntryBytes == 0 {
		cfg.EntryBytes = ftl.EntryBytesRAM
	}
	if cfg.ProtectedFraction == 0 {
		cfg.ProtectedFraction = 0.5
	}
	capacity := int(cfg.CacheBytes / int64(cfg.EntryBytes))
	if capacity < 4 {
		capacity = 4
	}
	return &FTL{
		cfg:      cfg,
		capacity: capacity,
		protCap:  int(float64(capacity) * cfg.ProtectedFraction),
		ePerTP:   ftl.DefaultEntriesPerTP,
	}
}

// Name implements ftl.Translator.
func (f *FTL) Name() string { return "DFTL" }

// Capacity returns the maximum number of cached entries.
func (f *FTL) Capacity() int { return f.capacity }

// Len returns the number of cached entries.
func (f *FTL) Len() int { return f.n }

// BeginRequest implements ftl.Translator. DFTL has no request-level state.
func (f *FTL) BeginRequest(first, last ftl.LPN, write bool) {}

// at returns the cached entry for lpn, or nil. The index only grows when an
// entry is installed, so an LPN beyond the table is simply not cached.
//
//ftl:hotpath
func (f *FTL) at(lpn ftl.LPN) *entry {
	if lpn >= 0 && lpn < ftl.LPN(len(f.byLPN)) {
		return f.byLPN[lpn]
	}
	return nil
}

// growIndex widens the entry index to hold lpn. Growth doubles, so
// steady-state installs never reallocate, but never past the device's
// numLPNs slots.
func (f *FTL) growIndex(lpn ftl.LPN, numLPNs int64) {
	nb := make([]*entry, max(int64(lpn)+1, min(2*int64(len(f.byLPN)), numLPNs)))
	copy(nb, f.byLPN)
	f.byLPN = nb
}

// Translate implements ftl.Translator.
//
//ftl:hotpath
func (f *FTL) Translate(env ftl.Env, lpn ftl.LPN) (flash.PPN, error) {
	f.ePerTP = env.EntriesPerTP()
	if e := f.at(lpn); e != nil {
		env.NoteLookup(true)
		f.touch(e)
		return e.ppn, nil
	}
	env.NoteLookup(false)
	// Make room before reading: the writeback of a dirty victim can
	// trigger GC, which may migrate the very data page being looked up.
	// Reading the translation page only after all evictions guarantees
	// the loaded value is current (ReadTP itself cannot trigger GC).
	if err := f.reserve(env, 1); err != nil {
		return flash.InvalidPPN, err
	}
	vals, err := env.ReadTP(ftl.VTPNOf(lpn, env.EntriesPerTP()))
	if err != nil {
		return flash.InvalidPPN, err
	}
	ppn := vals[ftl.OffOf(lpn, env.EntriesPerTP())]
	f.add(env, lpn, ppn, false)
	return ppn, nil
}

// Update implements ftl.Translator.
//
//ftl:hotpath
func (f *FTL) Update(env ftl.Env, lpn ftl.LPN, ppn flash.PPN) error {
	if e := f.at(lpn); e != nil {
		e.ppn = ppn
		e.dirty = true
		f.touch(e)
		return nil
	}
	// Unreachable in the normal write path (Translate just inserted the
	// entry), but a standalone Update must still work.
	if err := f.reserve(env, 1); err != nil {
		return err
	}
	f.add(env, lpn, ppn, true)
	return nil
}

// touch applies the segmented-LRU promotion rule.
func (f *FTL) touch(e *entry) {
	if e.protected {
		f.prot.MoveToFront(&e.node)
		return
	}
	// Promote to protected.
	f.prob.Remove(&e.node)
	e.protected = true
	f.prot.PushFront(&e.node)
	// Keep the protected segment within its share by demoting its LRU.
	for f.prot.Len() > f.protCap {
		lrun := f.prot.Back()
		d := lrun.Value
		f.prot.Remove(lrun)
		d.protected = false
		f.prob.PushFront(lrun)
	}
}

// reserve evicts entries until n slots are free.
func (f *FTL) reserve(env ftl.Env, n int) error {
	for f.n+n > f.capacity {
		if err := f.evictOne(env); err != nil {
			return err
		}
	}
	return nil
}

// add inserts a new entry; the caller must have reserved space.
func (f *FTL) add(env ftl.Env, lpn ftl.LPN, ppn flash.PPN, dirty bool) {
	if lpn >= ftl.LPN(len(f.byLPN)) {
		f.growIndex(lpn, env.NumLPNs())
	}
	e := f.slab.get()
	e.lpn, e.ppn, e.dirty = lpn, ppn, dirty
	f.byLPN[lpn] = e
	f.n++
	f.prob.PushFront(&e.node)
}

// unlink removes e from its LRU segment and from the index; the caller
// returns it to the slab.
func (f *FTL) unlink(e *entry) {
	if e.protected {
		f.prot.Remove(&e.node)
	} else {
		f.prob.Remove(&e.node)
	}
	f.byLPN[e.lpn] = nil
	f.n--
}

// evictOne removes the coldest entry (probationary LRU first), writing it
// back if dirty. The victim is fully unlinked before the writeback so that
// a GC triggered by the flash write sees a consistent cache.
//
//ftl:hotpath
func (f *FTL) evictOne(env ftl.Env) error {
	n := f.prob.Back()
	if n == nil {
		n = f.prot.Back()
	}
	if n == nil {
		return nil
	}
	e := n.Value
	f.unlink(e)
	env.NoteReplacement(e.dirty)
	// Capture the victim and release it before the writeback: WriteTP can
	// trigger GC, whose map updates only touch entries still in the cache
	// and never insert new ones, so the recycled slot cannot be aliased.
	lpn, ppn, dirty := e.lpn, e.ppn, e.dirty
	f.slab.put(e)
	if dirty {
		v := ftl.VTPNOf(lpn, env.EntriesPerTP())
		f.evictUp[0] = ftl.EntryUpdate{Off: ftl.OffOf(lpn, env.EntriesPerTP()), PPN: ppn}
		if err := env.WriteTP(v, f.evictUp[:], false); err != nil {
			return err
		}
	}
	return nil
}

// Discard implements ftl.Translator: a trimmed page's cached entry is
// dropped without writeback — the mapping it holds is dead, and the device
// rewrites the translation page itself as part of the discard.
//
//ftl:hotpath
func (f *FTL) Discard(lpn ftl.LPN) {
	e := f.at(lpn)
	if e == nil {
		return
	}
	f.unlink(e)
	f.slab.put(e)
}

// CheckInvariants audits the cache structure: the index, the two LRU
// segments, the entry count and the slab free list must agree. The segments
// are walked first (each listed entry indexed under its LPN, in the segment
// its flag names), then the index is swept for the reverse direction (each
// indexed entry listed, and no more indexed entries than the count). The
// ftlsan device build calls it after every host operation.
func (f *FTL) CheckInvariants() error {
	if listed := f.prob.Len() + f.prot.Len(); listed != f.n {
		return fmt.Errorf("dftl: %d listed entries for %d counted", listed, f.n)
	}
	for _, seg := range []struct {
		list      *lru.List[*entry]
		protected bool
	}{{&f.prob, false}, {&f.prot, true}} {
		for n := seg.list.Front(); n != nil; n = n.Next() {
			e := n.Value
			if e.protected != seg.protected {
				return fmt.Errorf("dftl: entry %d protected=%v on the wrong segment", e.lpn, e.protected)
			}
			if f.at(e.lpn) != e {
				return fmt.Errorf("dftl: listed entry %d not indexed under its lpn", e.lpn)
			}
		}
	}
	indexed := 0
	for lpn, e := range f.byLPN {
		if e == nil {
			continue
		}
		indexed++
		if e.lpn != ftl.LPN(lpn) {
			return fmt.Errorf("dftl: entry indexed at %d carries lpn %d", lpn, e.lpn)
		}
		if !e.node.InList() {
			return fmt.Errorf("dftl: indexed entry %d not on any LRU segment", lpn)
		}
	}
	if indexed != f.n {
		return fmt.Errorf("dftl: %d indexed entries for %d counted", indexed, f.n)
	}
	return f.slab.check()
}

// each calls fn for every cached entry, protected segment first, each
// segment MRU to LRU.
func (f *FTL) each(fn func(e *entry)) {
	for n := f.prot.Front(); n != nil; n = n.Next() {
		fn(n.Value)
	}
	for n := f.prob.Front(); n != nil; n = n.Next() {
		fn(n.Value)
	}
}

// FlushDirty implements ftl.Translator: a host flush barrier forces every
// dirty cached entry to its translation page. Entries sharing a translation
// page are written back in one batched read-modify-write, in offset order,
// and pages are visited in ascending VTPN order so the writeback sequence is
// deterministic.
func (f *FTL) FlushDirty(env ftl.Env) error {
	e := env.EntriesPerTP()
	b := &f.flushBatch
	b.reset()
	// Entries are marked clean as they are captured, NOT after the writes:
	// a GC triggered mid-flush refreshes cached entries (hit path) and must
	// leave them dirty again, or the refreshed mappings would be lost.
	f.each(func(ent *entry) {
		if !ent.dirty {
			return
		}
		b.add(ftl.VTPNOf(ent.lpn, e), ftl.OffOf(ent.lpn, e), ent.ppn)
		ent.dirty = false
	})
	// (page, offset) is unique per entry, so any sort yields the one order.
	slices.SortFunc(b.pending, func(x, y pendingUpdate) int {
		if c := cmp.Compare(x.v, y.v); c != 0 {
			return c
		}
		return cmp.Compare(x.up.Off, y.up.Off)
	})
	return b.write(env)
}

// OnGCDataMoves implements ftl.Translator. Updates for moves whose entries
// are cached happen in RAM (GC hits); the rest are grouped by translation
// page and applied in one batch update per page — DFTL's original GC-time
// batching. Pages are written in ascending VTPN order, each page's updates
// in move order.
//
//ftl:hotpath
func (f *FTL) OnGCDataMoves(env ftl.Env, moves []ftl.GCMove) error {
	e := env.EntriesPerTP()
	b := &f.gcBatch
	b.reset()
	for _, mv := range moves {
		if ent := f.at(mv.LPN); ent != nil {
			ent.ppn = mv.NewPPN
			ent.dirty = true
			env.NoteGCMapUpdate(true)
			continue
		}
		env.NoteGCMapUpdate(false)
		b.add(ftl.VTPNOf(mv.LPN, e), ftl.OffOf(mv.LPN, e), mv.NewPPN)
	}
	// A stable insertion sort by page keeps each page's move order. The
	// moves of one collection are bounded by the pages of one block, so
	// quadratic is fine and nothing allocates.
	p := b.pending
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && p[j].v < p[j-1].v; j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
	return b.write(env)
}

// pendingUpdate is one batched map update bound for translation page v.
type pendingUpdate struct {
	v  ftl.VTPN
	up ftl.EntryUpdate
}

// pageBatch is a reusable per-page writeback batch: the caller adds
// updates, sorts pending so each page's updates are contiguous, and write
// issues one WriteTP per page, gathering its updates into ups. Both slices
// keep their capacity across calls.
type pageBatch struct {
	pending []pendingUpdate
	ups     []ftl.EntryUpdate
}

// reset empties the batch, keeping its capacity.
func (b *pageBatch) reset() { b.pending = b.pending[:0] }

// add queues the update of slot off of translation page v.
func (b *pageBatch) add(v ftl.VTPN, off int, ppn flash.PPN) {
	b.pending = append(b.pending, pendingUpdate{v: v, up: ftl.EntryUpdate{Off: off, PPN: ppn}})
}

// write issues the sorted batch, one translation-page update per run of
// equal VTPNs.
//
//ftl:hotpath
func (b *pageBatch) write(env ftl.Env) error {
	p := b.pending
	for i := 0; i < len(p); {
		v := p[i].v
		ups := b.ups[:0]
		for ; i < len(p) && p[i].v == v; i++ {
			ups = append(ups, p[i].up)
		}
		b.ups = ups
		if err := env.WriteTP(v, ups, false); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot implements ftl.Inspector.
func (f *FTL) Snapshot() ftl.CacheSnapshot {
	s := ftl.CacheSnapshot{DirtyPerPage: map[ftl.VTPN]int{}}
	f.each(func(e *entry) {
		s.Entries++
		v := ftl.VTPNOf(e.lpn, f.ePerTP)
		dirty := s.DirtyPerPage[v]
		if e.dirty {
			s.DirtyEntries++
			dirty++
		}
		s.DirtyPerPage[v] = dirty
	})
	s.TPNodes = len(s.DirtyPerPage)
	s.UsedBytes = int64(f.n) * int64(f.cfg.EntryBytes)
	return s
}

// DirtyCached returns the LPN→PPN map of dirty cached entries; consistency
// tests feed it to Device.CheckConsistency.
func (f *FTL) DirtyCached() map[ftl.LPN]flash.PPN {
	out := make(map[ftl.LPN]flash.PPN)
	f.each(func(e *entry) {
		if e.dirty {
			out[e.lpn] = e.ppn
		}
	})
	return out
}
