package ftl

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/flash"
)

// TestVictimHeapMatchesBruteForce randomly programs and invalidates pages
// and checks that popVictim always returns a block with the maximum invalid
// count among reclaimable full blocks.
func TestVictimHeapMatchesBruteForce(t *testing.T) {
	cfg := flash.DefaultConfig(32)
	cfg.PagesPerBlock = 16
	chip, err := flash.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bm := newBlockMgr(chip, TPStriped)
	rng := rand.New(rand.NewSource(1))

	var live []flash.PPN
	bruteMax := func() int {
		max := 0
		for b := 0; b < cfg.NumBlocks; b++ {
			blk := flash.BlockID(b)
			if bm.isFrontier(blk) || bm.kinds[blk] == blockFree {
				continue
			}
			if chip.WritePtr(blk) < cfg.PagesPerBlock {
				continue
			}
			if inv := cfg.PagesPerBlock - chip.ValidCount(blk); inv > max {
				max = inv
			}
		}
		return max
	}

	for step := 0; step < 4000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // program a page
			if bm.freeCount() < 2 {
				break
			}
			ppn, err := bm.alloc(blockData)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := chip.Program(ppn, flash.Meta{Kind: flash.KindData, Tag: int64(step)}); err != nil {
				t.Fatal(err)
			}
			live = append(live, ppn)
		case 5, 6, 7, 8: // invalidate a random live page
			if len(live) == 0 {
				break
			}
			i := rng.Intn(len(live))
			if err := bm.invalidate(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		case 9: // pop a victim and verify greediness, then erase it
			want := bruteMax()
			got := bm.popVictim()
			if got < 0 {
				if want > 0 {
					t.Fatalf("step %d: popVictim returned none, brute force found %d", step, want)
				}
				break
			}
			inv := cfg.PagesPerBlock - chip.ValidCount(got)
			if inv != want {
				t.Fatalf("step %d: victim has %d invalid, best is %d", step, inv, want)
			}
			// Erase it like GC would: drop valid pages, erase, release.
			for off := 0; off < cfg.PagesPerBlock; off++ {
				p := chip.PageAt(got, off)
				if chip.State(p) == flash.PageValid {
					if err := chip.Invalidate(p); err != nil {
						t.Fatal(err)
					}
					for j, lp := range live {
						if lp == p {
							live = append(live[:j], live[j+1:]...)
							break
						}
					}
				}
			}
			if _, err := chip.Erase(got); err != nil {
				t.Fatal(err)
			}
			bm.release(got)
		}
	}
}

// refHeap is the container/heap version of the victim heap, kept as the
// reference for the hand-rolled one: ties on the invalid count make the pop
// order depend on the exact sift steps, and a different order would move
// every simulated number.
type refHeap struct {
	items []victim
	idx   map[flash.BlockID]int
}

func (h *refHeap) Len() int           { return len(h.items) }
func (h *refHeap) Less(i, j int) bool { return h.items[i].invalid > h.items[j].invalid }
func (h *refHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.idx[h.items[i].blk] = i
	h.idx[h.items[j].blk] = j
}
func (h *refHeap) Push(x any) {
	v := x.(victim)
	h.idx[v.blk] = len(h.items)
	h.items = append(h.items, v)
}
func (h *refHeap) Pop() any {
	v := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	delete(h.idx, v.blk)
	return v
}

// TestVictimHeapMatchesContainerHeap drives the victim heap and the
// container/heap reference through the same random pushes, re-keys,
// removals and pops over few distinct keys, so ties are common, and
// requires identical layouts and pop results after every step.
func TestVictimHeapMatchesContainerHeap(t *testing.T) {
	const blocks = 64
	bm := &blockMgr{heapIdx: make([]int, blocks)}
	for i := range bm.heapIdx {
		bm.heapIdx[i] = -1
	}
	got := victimHeap{bm: bm}
	want := &refHeap{idx: map[flash.BlockID]int{}}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 20_000; step++ {
		blk := flash.BlockID(rng.Intn(blocks))
		key := 1 + rng.Intn(4)
		i, in := want.idx[blk]
		switch op := rng.Intn(4); {
		case op == 0 && len(want.items) > 0:
			g, w := got.pop(), heap.Pop(want).(victim)
			bm.heapIdx[g.blk] = -1
			if g != w {
				t.Fatalf("step %d: pop %+v, reference %+v", step, g, w)
			}
		case op == 1 && in:
			g, w := got.remove(i), heap.Remove(want, i).(victim)
			bm.heapIdx[g.blk] = -1
			if g != w {
				t.Fatalf("step %d: remove(%d) %+v, reference %+v", step, i, g, w)
			}
		case in:
			got.items[i].invalid, want.items[i].invalid = key, key
			got.fix(i)
			heap.Fix(want, i)
		default:
			got.push(victim{blk: blk, invalid: key})
			heap.Push(want, victim{blk: blk, invalid: key})
		}
		if len(got.items) != len(want.items) {
			t.Fatalf("step %d: %d items, reference %d", step, len(got.items), len(want.items))
		}
		for j := range want.items {
			if got.items[j] != want.items[j] || bm.heapIdx[want.items[j].blk] != j {
				t.Fatalf("step %d: slot %d holds %+v (index %d), reference %+v",
					step, j, got.items[j], bm.heapIdx[got.items[j].blk], want.items[j])
			}
		}
	}
}
