package ftl

import (
	"math/bits"

	"repro/internal/flash"
)

// shadow is the device's verification state: the ground-truth mapping and
// the persisted view (the content of the flash translation pages), indexed
// by LPN. Neither exists on a real device; the simulator keeps them to check
// every translation against the truth and to model translation-page content
// for crash recovery.
//
// pending holds one bit per LPN, set exactly when a fold would change the
// slot: persisted unmapped while the live mapping is valid. setTruth and
// setPersist are the only writers of either table and keep the bits in step,
// so fold visits only the pending slots of a translation page instead of
// scanning all of them. check recounts the predicate for every LPN.
type shadow struct {
	truth        []flash.PPN // LPN → PPN ground truth (updated at write time)
	persist      []flash.PPN // LPN → PPN as stored in flash translation pages
	pending      []uint64    // bit lpn: persist[lpn] unmapped, truth[lpn] valid
	entriesPerTP int
}

// wordBits is the number of LPNs one pending word covers.
const wordBits = 64

// newShadow sizes persist's capacity to whole translation pages, so
// persistedTP can hand out every page, the partial last one included, as a
// full-length view. The slots past the last LPN stay InvalidPPN: setPersist
// and fold are bounded by the LPN count and never write them.
func newShadow(lpns int64, entriesPerTP int) shadow {
	e := int64(entriesPerTP)
	pages := make([]flash.PPN, (lpns+e-1)/e*e)
	for i := range pages {
		pages[i] = flash.InvalidPPN
	}
	s := shadow{
		truth:        make([]flash.PPN, lpns),
		persist:      pages[:lpns],
		pending:      make([]uint64, (lpns+wordBits-1)/wordBits),
		entriesPerTP: entriesPerTP,
	}
	for i := range s.truth {
		s.truth[i] = flash.InvalidPPN
	}
	return s
}

// isPending is the fold predicate for one slot.
func (s *shadow) isPending(lpn LPN) bool {
	return s.persist[lpn] == flash.InvalidPPN && s.truth[lpn].Valid()
}

// mark recomputes lpn's pending bit after either table changed.
func (s *shadow) mark(lpn LPN) {
	w, bit := uint64(lpn)/wordBits, uint64(1)<<(uint64(lpn)%wordBits)
	if s.isPending(lpn) {
		s.pending[w] |= bit
	} else {
		s.pending[w] &^= bit
	}
}

// setTruth records lpn's live mapping.
func (s *shadow) setTruth(lpn LPN, p flash.PPN) {
	s.truth[lpn] = p
	s.mark(lpn)
}

// setPersist records lpn's entry in its translation page's flash content.
func (s *shadow) setPersist(lpn LPN, p flash.PPN) {
	s.persist[lpn] = p
	s.mark(lpn)
}

// tpRange returns the LPNs [lo, hi) of translation page v; the last page
// may be partial.
func (s *shadow) tpRange(v VTPN) (lo, hi int64) {
	lo = int64(v) * int64(s.entriesPerTP)
	return lo, min64(lo+int64(s.entriesPerTP), int64(len(s.persist)))
}

// persistedTP returns the persisted entries of translation page v: always
// entriesPerTP of them, InvalidPPN past the last LPN. The slice is a view of
// the shadow, capped so an append cannot reach the next page.
func (s *shadow) persistedTP(v VTPN) []flash.PPN {
	lo, hi := int64(v)*int64(s.entriesPerTP), int64(v+1)*int64(s.entriesPerTP)
	return s.persist[lo:hi:hi]
}

// fold folds ground truth into the persisted view of translation page v:
// every slot whose persisted entry is unmapped while the live mapping is
// valid takes the live value. Called whenever a new physical copy of v is
// programmed (WriteTP, trim rewrite, GC migration) — the rewrite
// opportunistically persists mappings whose writeback was still pending.
// This keeps recovery's trim rule sound: after any translation-page
// program, a persisted-unmapped slot implies the page really is unmapped,
// so "translation page newer than data page + slot unmapped" can only mean
// a durable discard.
//
// The cost is one word per 64 slots plus one step per pending slot: on a
// device that never trims, persisted entries are never unmapped after
// Format, no bit is ever set, and the fold only reads zero words.
func (s *shadow) fold(v VTPN) {
	lo, hi := s.tpRange(v)
	first, last := lo/wordBits, (hi-1)/wordBits
	for w := first; w <= last; w++ {
		word := s.pending[w]
		if word == 0 {
			continue
		}
		if w == first {
			word &= ^uint64(0) << (lo % wordBits)
		}
		if w == last {
			word &= ^uint64(0) >> (wordBits - 1 - (hi-1)%wordBits)
		}
		s.pending[w] &^= word
		for word != 0 {
			lpn := w*wordBits + int64(bits.TrailingZeros64(word))
			s.persist[lpn] = s.truth[lpn]
			word &= word - 1
		}
	}
}

// check validates the truth/persist half of the device invariants in one
// pass over the LPNs: every mapped truth entry points at a valid data page
// tagged with its LPN; given the translator's dirty-cached entries (nil
// skips this), truth differs from persist exactly where a dirty cached
// entry holds the truth; and the pending bitmap equals the fold predicate
// recomputed by brute force, with no bit set past the last LPN.
func (s *shadow) check(chip *flash.Chip, dirtyCached map[LPN]flash.PPN) error {
	for lpn := LPN(0); lpn < LPN(len(s.truth)); lpn++ {
		t, p := s.truth[lpn], s.persist[lpn]
		if t.Valid() {
			if st := chip.State(t); st != flash.PageValid {
				return errf("truth[%d] = %d in state %v", lpn, t, st)
			}
			if m := chip.MetaOf(t); m.Kind != flash.KindData || m.Tag != int64(lpn) {
				return errf("truth[%d] = %d has meta %+v", lpn, t, m)
			}
		}
		bit := s.pending[lpn/wordBits]>>(lpn%wordBits)&1 == 1
		if want := s.isPending(lpn); bit != want {
			return errf("lpn %d: pending bit %v, but truth %d persist %d", lpn, bit, t, p)
		}
		if dirtyCached == nil {
			continue
		}
		dirtyPPN, dirty := dirtyCached[lpn]
		if dirty && dirtyPPN != t {
			return errf("dirty cache entry for lpn %d holds %d, truth %d", lpn, dirtyPPN, t)
		}
		if t != p && !dirty {
			return errf("lpn %d: truth %d != persist %d with no dirty cache entry", lpn, t, p)
		}
	}
	if n := int64(len(s.truth)); n%wordBits != 0 {
		if tail := s.pending[len(s.pending)-1] >> (n % wordBits); tail != 0 {
			return errf("pending bits set past the last lpn %d: %#x", n-1, tail)
		}
	}
	return nil
}
