package ftl

import (
	"repro/internal/flash"
)

// blockKind tracks what an allocated block holds; garbage collection treats
// data and translation blocks differently (§3.1's Ngcd vs Ngct).
type blockKind uint8

const (
	blockFree blockKind = iota
	blockData
	blockTrans
)

// blockMgr owns physical block allocation: per-die free-block lists, one
// active write frontier per (block kind, die), and the greedy GC victim
// queue — an indexed max-heap on invalid-page count, re-keyed on every
// invalidation so popping always yields the fullest-of-garbage block.
//
// On a multi-die device consecutive data-page allocations round-robin
// across dies (page-level striping), so consecutive logical pages land on
// consecutive channels and independent accesses overlap in the scheduler.
// Translation blocks follow the configured TPPlacement: striped like data,
// or pinned to the dies of channel 0. With one die everything collapses to
// the single-frontier FIFO allocator this generalizes.
type blockMgr struct {
	chip  *flash.Chip
	kinds []blockKind

	numDies int
	free    [][]flash.BlockID // per-die free FIFO
	frHead  []int             // consumed prefix of each die's FIFO

	dataFrontier  []flash.BlockID // per die; -1 when no open block
	transFrontier []flash.BlockID
	dataDies      []int // placement set for data blocks (all dies)
	transDies     []int // placement set for translation blocks
	dataRR        int   // round-robin cursors over the placement sets
	transRR       int

	victims victimHeap
	heapIdx []int // position of each block in victims, -1 when absent

	policy  GCPolicy
	tick    int64   // advances on every invalidation (cost-benefit age base)
	lastMod []int64 // tick of each block's latest invalidation
}

func newBlockMgr(chip *flash.Chip, placement TPPlacement) *blockMgr {
	cfg := chip.Config()
	n := cfg.NumBlocks
	dies := cfg.NumDies()
	bm := &blockMgr{
		chip:          chip,
		kinds:         make([]blockKind, n),
		numDies:       dies,
		free:          make([][]flash.BlockID, dies),
		frHead:        make([]int, dies),
		dataFrontier:  make([]flash.BlockID, dies),
		transFrontier: make([]flash.BlockID, dies),
		heapIdx:       make([]int, n),
		lastMod:       make([]int64, n),
	}
	bm.victims.bm = bm
	for d := 0; d < dies; d++ {
		bm.dataFrontier[d] = -1
		bm.transFrontier[d] = -1
		bm.dataDies = append(bm.dataDies, d)
		if placement == TPStriped || cfg.ChannelOfDie(d) == 0 {
			bm.transDies = append(bm.transDies, d)
		}
	}
	for b := range bm.heapIdx {
		bm.heapIdx[b] = -1
	}
	// Each FIFO pops from the front: append ascending so low blocks
	// allocate first (reproducible layout; Format lays data out
	// sequentially). Blocks interleave across dies (flash.Config.DieOf).
	for b := 0; b < n; b++ {
		die := cfg.DieOf(flash.BlockID(b))
		bm.free[die] = append(bm.free[die], flash.BlockID(b))
	}
	return bm
}

func (bm *blockMgr) freeCount() int {
	n := 0
	for d := 0; d < bm.numDies; d++ {
		n += len(bm.free[d]) - bm.frHead[d]
	}
	return n
}

// popFree takes from the FRONT of die's free list (FIFO): erased blocks
// re-enter circulation in release order, so no block idles at the bottom of
// a stack accumulating an ever-growing wear deficit.
func (bm *blockMgr) popFree(die int) (flash.BlockID, bool) {
	if bm.frHead[die] >= len(bm.free[die]) {
		return -1, false
	}
	b := bm.free[die][bm.frHead[die]]
	bm.frHead[die]++
	// Compact once the dead prefix dominates.
	if bm.frHead[die] > 64 && bm.frHead[die]*2 > len(bm.free[die]) {
		bm.free[die] = append(bm.free[die][:0], bm.free[die][bm.frHead[die]:]...)
		bm.frHead[die] = 0
	}
	return b, true
}

// frontiers returns the per-die frontier slice and placement set for kind.
func (bm *blockMgr) frontiers(kind blockKind) ([]flash.BlockID, []int, *int) {
	if kind == blockTrans {
		return bm.transFrontier, bm.transDies, &bm.transRR
	}
	return bm.dataFrontier, bm.dataDies, &bm.dataRR
}

// isFrontier reports whether blk is an open write frontier of either kind.
func (bm *blockMgr) isFrontier(blk flash.BlockID) bool {
	for d := 0; d < bm.numDies; d++ {
		if bm.dataFrontier[d] == blk || bm.transFrontier[d] == blk {
			return true
		}
	}
	return false
}

// tryAllocOnDie returns the next free page of die's frontier for kind,
// opening a new block from die's free list when the frontier is full. It
// fails (without error) when the frontier is full and the die has no free
// block left.
func (bm *blockMgr) tryAllocOnDie(kind blockKind, die int) (flash.PPN, bool) {
	frontiers, _, _ := bm.frontiers(kind)
	frontier := &frontiers[die]
	ppb := bm.chip.Config().PagesPerBlock
	if *frontier >= 0 && bm.chip.WritePtr(*frontier) < ppb {
		return bm.chip.PageAt(*frontier, bm.chip.WritePtr(*frontier)), true
	}
	// The current frontier is full: retire it and open a new block. The
	// retired block is enqueued as a GC candidate only after the frontier
	// pointer moves off it — maybeEnqueue skips active frontiers, and
	// pages invalidated during its tenure must not be lost to GC.
	blk, ok := bm.popFree(die)
	if !ok {
		return flash.InvalidPPN, false
	}
	old := *frontier
	bm.kinds[blk] = kind
	*frontier = blk
	if old >= 0 {
		bm.maybeEnqueue(old)
	}
	return bm.chip.PageAt(blk, 0), true
}

// alloc returns the next free page for kind, striping consecutive
// allocations across the kind's placement set. When the round-robin die
// cannot serve (frontier full, die out of free blocks), allocation falls
// back to the rest of the placement set and finally to any die — a die
// running dry must degrade striping, not fail the write. The caller is
// responsible for keeping the free count above the GC threshold.
func (bm *blockMgr) alloc(kind blockKind) (flash.PPN, error) {
	_, dies, rr := bm.frontiers(kind)
	i := *rr % len(dies)
	*rr++
	if ppn, ok := bm.tryAllocOnDie(kind, dies[i]); ok {
		return ppn, nil
	}
	for off := 1; off < len(dies); off++ {
		if ppn, ok := bm.tryAllocOnDie(kind, dies[(i+off)%len(dies)]); ok {
			return ppn, nil
		}
	}
	if len(dies) < bm.numDies {
		for die := 0; die < bm.numDies; die++ {
			if ppn, ok := bm.tryAllocOnDie(kind, die); ok {
				return ppn, nil
			}
		}
	}
	return flash.InvalidPPN, errf("out of free blocks (device full)")
}

// invalidate marks ppn invalid and enqueues its block as a GC candidate if
// the block is full.
func (bm *blockMgr) invalidate(ppn flash.PPN) error {
	if err := bm.chip.Invalidate(ppn); err != nil {
		return err
	}
	blk := bm.chip.Block(ppn)
	bm.tick++
	bm.lastMod[blk] = bm.tick
	bm.maybeEnqueue(blk)
	return nil
}

// maybeEnqueue inserts or re-keys blk in the victim heap when it is full,
// reclaimable and not an open frontier.
func (bm *blockMgr) maybeEnqueue(blk flash.BlockID) {
	if bm.isFrontier(blk) {
		return
	}
	if bm.kinds[blk] == blockFree {
		return
	}
	ppb := bm.chip.Config().PagesPerBlock
	if bm.chip.WritePtr(blk) < ppb {
		return // not fully programmed yet
	}
	invalid := ppb - bm.chip.ValidCount(blk)
	if invalid == 0 {
		return // nothing to reclaim
	}
	if i := bm.heapIdx[blk]; i >= 0 {
		bm.victims.items[i].invalid = invalid
		bm.victims.fix(i)
		return
	}
	bm.victims.push(victim{blk: blk, invalid: invalid})
}

// popVictim returns the next GC victim under the configured policy, or -1
// when no block is reclaimable.
func (bm *blockMgr) popVictim() flash.BlockID {
	if bm.policy == GCCostBenefit {
		return bm.popVictimCostBenefit()
	}
	for len(bm.victims.items) > 0 {
		v := bm.victims.pop()
		bm.heapIdx[v.blk] = -1
		if bm.chip.ValidCount(v.blk) == bm.chip.Config().PagesPerBlock {
			continue // defensive; re-keying should prevent this
		}
		return v.blk
	}
	return -1
}

// popVictimCostBenefit scans reclaimable blocks for the one maximizing the
// classic cost-benefit score age*(1-u)/(2u), where u is the valid fraction
// and age the time since the block's last invalidation. The chosen block is
// also removed from the greedy heap so the two structures stay coherent.
func (bm *blockMgr) popVictimCostBenefit() flash.BlockID {
	ppb := bm.chip.Config().PagesPerBlock
	best := flash.BlockID(-1)
	bestScore := -1.0
	for b := 0; b < len(bm.kinds); b++ {
		blk := flash.BlockID(b)
		if bm.kinds[blk] == blockFree || bm.isFrontier(blk) {
			continue
		}
		if bm.chip.WritePtr(blk) < ppb {
			continue
		}
		valid := bm.chip.ValidCount(blk)
		invalid := ppb - valid
		if invalid == 0 {
			continue
		}
		age := float64(bm.tick - bm.lastMod[blk] + 1)
		var score float64
		if valid == 0 {
			score = age * float64(ppb) * 2 // free win: prefer oldest empty block
		} else {
			u := float64(valid) / float64(ppb)
			score = age * (1 - u) / (2 * u)
		}
		if score > bestScore {
			bestScore, best = score, blk
		}
	}
	if best >= 0 {
		bm.removeFromHeap(best)
	}
	return best
}

// removeFromHeap drops blk's pending victim entry, if any. Callers that
// collect a block outside popVictim (wear leveling) must use it to keep the
// heap coherent.
func (bm *blockMgr) removeFromHeap(blk flash.BlockID) {
	if i := bm.heapIdx[blk]; i >= 0 {
		bm.victims.remove(i)
		bm.heapIdx[blk] = -1
	}
}

// release returns an erased block to its die's free list.
func (bm *blockMgr) release(blk flash.BlockID) {
	bm.kinds[blk] = blockFree
	die := bm.chip.Config().DieOf(blk)
	bm.free[die] = append(bm.free[die], blk)
}

type victim struct {
	blk     flash.BlockID
	invalid int
}

// victimHeap is an indexed max-heap over invalid counts; bm.heapIdx tracks
// each block's position so keys can be fixed in place.
//
// It is hand-rolled over the victim slice rather than built on
// container/heap, whose interface boxes every pushed and popped victim
// through any: one allocation per GC enqueue and per victim pop. The sift
// steps are container/heap's own, so blocks with equal invalid counts pop
// in container/heap's order (TestVictimHeapMatchesContainerHeap).
type victimHeap struct {
	items []victim
	bm    *blockMgr
}

func (h *victimHeap) less(i, j int) bool { return h.items[i].invalid > h.items[j].invalid }

func (h *victimHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.bm.heapIdx[h.items[i].blk] = i
	h.bm.heapIdx[h.items[j].blk] = j
}

// push adds v.
func (h *victimHeap) push(v victim) {
	h.bm.heapIdx[v.blk] = len(h.items)
	h.items = append(h.items, v)
	h.up(len(h.items) - 1)
}

// pop removes and returns the victim with the most invalid pages.
func (h *victimHeap) pop() victim { return h.remove(0) }

// remove deletes the victim at index i and returns it.
func (h *victimHeap) remove(i int) victim {
	n := len(h.items) - 1
	h.swap(i, n)
	v := h.items[n]
	h.items = h.items[:n]
	if i < n {
		h.fix(i)
	}
	return v
}

// fix restores the heap order after the key at index i changed.
func (h *victimHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h *victimHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts index i0 down and reports whether it moved.
func (h *victimHeap) down(i0 int) bool {
	i, n := i0, len(h.items)
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}
