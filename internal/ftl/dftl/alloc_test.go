package dftl

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// TestMissEvictCycleAllocBound pins DFTL's steady-state allocation behavior
// on the shape the random-read macro-bench measures: a random read over a
// cache far smaller than the footprint misses, evicts and installs from a
// recycled slab entry. Before the slab, every miss allocated a fresh entry —
// the ~0.99 allocs/op the bench reported; after it the cycle runs out of the
// free list, and with the entry map replaced by a dense index nothing is
// left to allocate.
func TestMissEvictCycleAllocBound(t *testing.T) {
	if !allocGuardsEnabled {
		t.Skip("allocation guards disabled under -race / -tags ftlsan")
	}
	// 64-entry budget over a 4096-page device: nearly every read misses.
	d, tr := newDevice(t, 512)
	rng := rand.New(rand.NewSource(11))
	arrival := int64(0)
	serveRandom := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := d.Serve(rd(arrival, rng.Int63n(4096))); err != nil {
				t.Fatal(err)
			}
			arrival++
		}
	}
	serveRandom(2_000) // warm the slab past its high-water mark
	const reads = 500
	allocs := testing.AllocsPerRun(1, func() { serveRandom(reads) })
	perOp := allocs / reads
	if perOp != 0 {
		t.Fatalf("miss+evict cycle allocates %.3f times per op, want 0", perOp)
	}
	m := d.Metrics()
	if m.Hits*2 > m.Lookups {
		t.Fatalf("hit ratio %.2f too high; the guard did not exercise the miss path", float64(m.Hits)/float64(m.Lookups))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteTrimGCCycleAllocFree pins DFTL's write, trim and GC paths at zero
// allocations: on a warmed device, random writes plus 64-page trims over a
// cache far smaller than the footprint keep evicting dirty entries, and the
// writes force garbage collection, whose move list and per-page batches run
// out of reused scratch. A per-collection move list or pending map would
// show here as allocations.
func TestWriteTrimGCCycleAllocFree(t *testing.T) {
	if !allocGuardsEnabled {
		t.Skip("allocation guards disabled under -race / -tags ftlsan")
	}
	d, tr := newDevice(t, 512)
	rng := rand.New(rand.NewSource(13))
	arrival := int64(0)
	serve := func(n int) {
		for i := 0; i < n; i++ {
			req := wr(arrival, rng.Int63n(4096))
			if rng.Intn(64) == 0 {
				req = trace.Request{Arrival: arrival, Offset: rng.Int63n(4096-64) * 4096, Length: 64 * 4096, Op: trace.OpTrim}
			}
			if _, err := d.Serve(req); err != nil {
				t.Fatal(err)
			}
			arrival++
		}
	}
	serve(20_000) // grow the slab, the index and every scratch slice
	before := d.Metrics()
	const ops = 2_000
	allocs := testing.AllocsPerRun(1, func() { serve(ops) })
	after := d.Metrics()
	if allocs != 0 {
		t.Fatalf("write/trim/GC cycle allocates %.3f times per op, want 0", allocs/ops)
	}
	gcs := after.GCDataCollections - before.GCDataCollections
	gcMisses := (after.GCMapUpdates - after.GCMapHits) - (before.GCMapUpdates - before.GCMapHits)
	if gcs == 0 || gcMisses == 0 {
		t.Fatalf("measured window ran %d data GCs with %d GC map misses; the guard did not exercise GC batching", gcs, gcMisses)
	}
	if after.TrimmedPages == before.TrimmedPages {
		t.Fatal("measured window trimmed nothing")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}

// TestSlabRecycleStress churns the cache through many full turnovers and
// audits the slab afterwards: every free entry reset, every mapped entry
// linked.
func TestSlabRecycleStress(t *testing.T) {
	d, tr := newDevice(t, 512)
	rng := rand.New(rand.NewSource(7))
	arrival := int64(0)
	for i := 0; i < 20_000; i++ {
		page := rng.Int63n(4096)
		var err error
		if rng.Intn(3) == 0 {
			_, err = d.Serve(wr(arrival, page))
		} else {
			_, err = d.Serve(rd(arrival, page))
		}
		if err != nil {
			t.Fatal(err)
		}
		arrival++
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
		t.Fatal(err)
	}
}
