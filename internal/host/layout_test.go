package host

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ftl"
	"repro/internal/trace"
)

func TestNewLayoutErrors(t *testing.T) {
	cases := []struct {
		name       string
		shards     int
		bytes      int64
		pageBytes  int
		chunkPages int64
	}{
		{"zero shards", 0, 1 << 20, 64, 4},
		{"negative shards", -1, 1 << 20, 64, 4},
		{"zero capacity", 4, 0, 64, 4},
		{"negative chunk", 4, 1 << 20, 64, -1},
		{"more shards than chunks", 8, 4 * 4 * 64, 64, 4},
	}
	for _, c := range cases {
		if _, err := NewLayout(c.shards, c.bytes, c.pageBytes, c.chunkPages); err == nil {
			t.Errorf("%s: NewLayout(%d, %d, %d, %d) accepted", c.name, c.shards, c.bytes, c.pageBytes, c.chunkPages)
		}
	}
}

func TestLayoutDefaultChunkIsTranslationPage(t *testing.T) {
	l, err := NewLayout(2, 64<<20, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.PageBytes != ftl.DefaultPageBytes {
		t.Fatalf("default page bytes = %d", l.PageBytes)
	}
	if want := int64(ftl.DefaultEntriesPerTP); l.ChunkPages != want {
		t.Fatalf("default chunk = %d pages, want one translation page's %d", l.ChunkPages, want)
	}
}

// testLayout is a small geometry with a partial tail chunk: 64 B pages,
// 4-page (256 B) chunks, 10.5 chunks over 3 shards.
func testLayout(t *testing.T, shards int) Layout {
	t.Helper()
	l, err := NewLayout(shards, 10*256+128, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLayoutOwnershipPartition(t *testing.T) {
	for shards := 1; shards <= 5; shards++ {
		l := testLayout(t, shards)
		var owned int64
		for s := 0; s < shards; s++ {
			owned += l.OwnedChunks(s)
			want := l.OwnedChunks(s) * l.ChunkBytes()
			if shards == 1 {
				want = l.LogicalBytes // the whole space, unrounded
			}
			if l.ShardBytes(s) != want {
				t.Fatalf("shards=%d: ShardBytes(%d) = %d, want %d", shards, s, l.ShardBytes(s), want)
			}
		}
		if owned != l.Chunks() {
			t.Fatalf("shards=%d: owned chunks %d != %d", shards, owned, l.Chunks())
		}
		// Every (shard, local page) pair is hit by exactly one global page.
		seen := map[[2]int64]bool{}
		pages := l.LogicalBytes / l.PageBytes
		for lpn := int64(0); lpn < pages; lpn++ {
			s := l.ShardOfPage(lpn)
			if s < 0 || s >= shards {
				t.Fatalf("shards=%d: lpn %d on shard %d", shards, lpn, s)
			}
			lp := l.LocalPage(lpn)
			if lp < 0 || lp*l.PageBytes >= l.ShardBytes(s) {
				t.Fatalf("shards=%d: lpn %d local page %d beyond shard %d capacity", shards, lpn, lp, s)
			}
			k := [2]int64{int64(s), lp}
			if seen[k] {
				t.Fatalf("shards=%d: shard %d local page %d hit twice", shards, s, lp)
			}
			seen[k] = true
		}
	}
}

func TestImagePagesMatchesBruteForce(t *testing.T) {
	for shards := 1; shards <= 5; shards++ {
		l := testLayout(t, shards)
		pages := l.LogicalBytes / l.PageBytes
		counts := make([]int64, shards)
		for prefix := int64(0); prefix <= pages; prefix++ {
			for s := 0; s < shards; s++ {
				if got := l.ImagePages(s, prefix); got != counts[s] {
					t.Fatalf("shards=%d: ImagePages(%d, %d) = %d, brute force %d", shards, s, prefix, got, counts[s])
				}
			}
			if prefix < pages {
				counts[l.ShardOfPage(prefix)]++
			}
		}
	}
}

func TestFragmentsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for shards := 1; shards <= 5; shards++ {
		l := testLayout(t, shards)
		for iter := 0; iter < 2000; iter++ {
			op := []trace.Op{trace.OpRead, trace.OpWrite, trace.OpWriteFUA, trace.OpTrim}[rng.Intn(4)]
			off := rng.Int63n(l.LogicalBytes)
			length := 1 + rng.Int63n(l.LogicalBytes-off)
			r := trace.Request{Arrival: rng.Int63n(1000), Offset: off, Length: length, Op: op}
			frags, err := l.Fragments(r, nil)
			if err != nil {
				t.Fatalf("shards=%d: Fragments(%+v): %v", shards, r, err)
			}
			// Brute force: remap every byte individually (page-sized cells
			// would hide sub-page offsets; bytes catch everything).
			want := map[int]map[int64]bool{}
			for b := off; b < off+length; b++ {
				lpn := b / l.PageBytes
				s := l.ShardOfPage(lpn)
				local := l.LocalPage(lpn)*l.PageBytes + b%l.PageBytes
				if want[s] == nil {
					want[s] = map[int64]bool{}
				}
				want[s][local] = true
			}
			var total int64
			seenShard := map[int]bool{}
			for _, f := range frags {
				if seenShard[f.Shard] {
					t.Fatalf("shards=%d: two fragments on shard %d for %+v", shards, f.Shard, r)
				}
				seenShard[f.Shard] = true
				if err := f.Req.Validate(); err != nil {
					t.Fatalf("shards=%d: invalid fragment %+v: %v", shards, f.Req, err)
				}
				if f.Req.Op != op || f.Req.Arrival != r.Arrival {
					t.Fatalf("shards=%d: fragment lost op/arrival: %+v", shards, f.Req)
				}
				total += f.Req.Length
				for b := f.Req.Offset; b < f.Req.End(); b++ {
					if !want[f.Shard][b] {
						t.Fatalf("shards=%d: fragment byte %d on shard %d not in brute-force image of %+v",
							shards, b, f.Shard, r)
					}
				}
			}
			if total != length {
				t.Fatalf("shards=%d: fragments cover %d of %d bytes of %+v", shards, total, length, r)
			}
		}
	}
}

func TestFragmentsFlushBroadcast(t *testing.T) {
	l := testLayout(t, 3)
	frags, err := l.Fragments(trace.Request{Op: trace.OpFlush}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 3 {
		t.Fatalf("flush produced %d fragments, want one per shard", len(frags))
	}
	for s, f := range frags {
		if f.Shard != s || f.Req.Op != trace.OpFlush || f.Req.Length != 0 {
			t.Fatalf("flush fragment %d = %+v", s, f)
		}
	}
}

func TestFragmentsRejectBadRequests(t *testing.T) {
	l := testLayout(t, 2)
	bad := []trace.Request{
		{Offset: -1, Length: 64, Op: trace.OpRead},
		{Offset: 0, Length: 0, Op: trace.OpWrite},
		{Offset: l.LogicalBytes - 32, Length: 64, Op: trace.OpRead}, // beyond capacity
		{Offset: 64, Length: 64, Op: trace.OpFlush},                 // flush with payload
	}
	for _, r := range bad {
		if _, err := l.Fragments(r, nil); err == nil {
			t.Errorf("Fragments accepted %+v", r)
		}
	}
}

func TestPartitionConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := testLayout(t, 3)
	var reqs []trace.Request
	flushes := 0
	var payload int64
	for i := 0; i < 500; i++ {
		if rng.Intn(10) == 0 {
			reqs = append(reqs, trace.Request{Op: trace.OpFlush})
			flushes++
			continue
		}
		off := rng.Int63n(l.LogicalBytes)
		length := 1 + rng.Int63n(min64(l.LogicalBytes-off, 4*l.ChunkBytes()))
		reqs = append(reqs, trace.Request{Offset: off, Length: length, Op: trace.OpWrite})
		payload += length
	}
	streams, err := l.Partition(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var gotPayload int64
	for s, stream := range streams {
		got := 0
		for _, r := range stream {
			if r.Op == trace.OpFlush {
				got++
				continue
			}
			gotPayload += r.Length
		}
		if got != flushes {
			t.Fatalf("shard %d saw %d flushes, want %d", s, got, flushes)
		}
	}
	if gotPayload != payload {
		t.Fatalf("partition carries %d payload bytes, want %d", gotPayload, payload)
	}
}

// TestShardConfigsSingleShardPassthrough pins the 1-shard identity: the base
// config passes through untouched and the layout assigns the shard exactly
// the global capacity, also when it is not a whole number of chunks.
func TestShardConfigsSingleShardPassthrough(t *testing.T) {
	for _, space := range []int64{64 << 20, 64<<20 + 4096, 10 << 20, 3<<20 + 8192} {
		base := ftl.DefaultConfig(space)
		base.CacheBytes = 123456
		base.Seed = 42
		lay, cfgs, err := ShardConfigs(base, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(cfgs) != 1 || !reflect.DeepEqual(cfgs[0], base) {
			t.Fatalf("space %d: single-shard config not passed through: %+v", space, cfgs)
		}
		if got := lay.ShardBytes(0); got != space {
			t.Fatalf("space %d: layout assigns the single shard %d B", space, got)
		}
	}
}

func TestShardConfigsSplit(t *testing.T) {
	base := ftl.DefaultConfig(64 << 20)
	base.CacheBytes = 1 << 20
	base.Seed = 7
	lay, cfgs, err := ShardConfigs(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	var capacity int64
	seeds := map[int64]bool{}
	for s, cfg := range cfgs {
		if cfg.LogicalBytes != lay.ShardBytes(s) {
			t.Fatalf("shard %d capacity %d != layout %d", s, cfg.LogicalBytes, lay.ShardBytes(s))
		}
		capacity += cfg.LogicalBytes
		if cfg.CacheBytes != base.CacheBytes/4 {
			t.Fatalf("shard %d cache %d, want %d", s, cfg.CacheBytes, base.CacheBytes/4)
		}
		seeds[cfg.Seed] = true
	}
	if capacity < base.LogicalBytes {
		t.Fatalf("shard capacities sum to %d < advertised %d", capacity, base.LogicalBytes)
	}
	if len(seeds) != 4 {
		t.Fatalf("shard seeds collide: %v", seeds)
	}
}

func TestDigestProperties(t *testing.T) {
	h := []uint64{0x1111, 0x2222, 0x3333}
	d := Digest(h)
	if d == Digest([]uint64{0x1111, 0x2222}) {
		t.Fatal("digest ignores shard count")
	}
	if d == Digest([]uint64{0x2222, 0x1111, 0x3333}) {
		t.Fatal("digest ignores which shard produced which hash")
	}
	if d == Digest([]uint64{0x1111, 0x2222, 0x3332}) {
		t.Fatal("digest ignores a single-bit hash change")
	}
	if Digest(h) != d {
		t.Fatal("digest not deterministic")
	}
	if Digest(nil) == Digest([]uint64{0}) {
		t.Fatal("empty digest collides with one zero hash")
	}
}
