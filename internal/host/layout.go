// Package host is an NVMe-style multi-queue frontend that serves concurrent
// goroutine traffic across independent per-shard FTL instances.
//
// The logical page space is statically striped across N shards at
// translation-page granularity: chunk g (ChunkPages consecutive LPNs, one
// translation page's worth by default) belongs to shard g mod N, where it
// appears as local chunk g div N. Striping at TP granularity keeps every
// translation page's entries — and therefore TPFTL's intra-TP locality,
// prefetching and batch writeback — wholly inside one shard, while
// interleaving chunks balances sequential and clustered workloads across
// shards. Each shard owns a full ftl.Device: private mapping cache, GC,
// block manager and scheduler clock. Shards share no mutable state (the
// globalstate analyzer proves the tree has none), so they run on separate
// goroutines without locks.
//
// Because a contiguous byte range covers every chunk between its first and
// last, the chunks it owns on one shard are consecutive local chunks and its
// image there is a single contiguous local byte range: any read, write or
// discard splits into at most one fragment per shard. Flushes are barriers
// and broadcast to every shard.
//
// Determinism: each shard's scheduler keeps the existing order-sensitive
// EventHash over its own serial request order. Digest folds the per-shard
// hashes into one value that is insensitive to how shard executions
// interleave in wall time — per-shard order is what matters, cross-shard
// order never does — so determinism tests stay meaningful under true
// concurrency. Host.ReplayStream fixes each shard's order by construction.
package host

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/trace"
)

// Layout is the static LPN→shard map: ChunkPages consecutive logical pages
// form a chunk, chunk g lives on shard g mod Shards as local chunk
// g div Shards.
type Layout struct {
	// Shards is the number of independent FTL instances.
	Shards int
	// ChunkPages is the striping granularity in logical pages. The default
	// (one translation page's worth of entries) keeps every translation
	// page wholly inside one shard.
	ChunkPages int64
	// PageBytes is the logical page size shared by every shard.
	PageBytes int64
	// LogicalBytes is the global advertised capacity the host routes over.
	LogicalBytes int64

	chunkBytes int64
	chunks     int64 // global chunk count (last chunk may be partial)
}

// NewLayout validates and derives a layout. chunkPages 0 selects the
// translation-page default (pageBytes / ftl.EntryBytesInFlash entries).
func NewLayout(shards int, logicalBytes int64, pageBytes int, chunkPages int64) (Layout, error) {
	if pageBytes <= 0 {
		pageBytes = ftl.DefaultPageBytes
	}
	if chunkPages == 0 {
		chunkPages = int64(pageBytes / ftl.EntryBytesInFlash)
	}
	l := Layout{
		Shards:       shards,
		ChunkPages:   chunkPages,
		PageBytes:    int64(pageBytes),
		LogicalBytes: logicalBytes,
	}
	l.chunkBytes = chunkPages * l.PageBytes
	if logicalBytes > 0 {
		l.chunks = (logicalBytes + l.chunkBytes - 1) / l.chunkBytes
	}
	switch {
	case shards <= 0:
		return l, fmt.Errorf("host: non-positive shard count %d", shards)
	case chunkPages <= 0:
		return l, fmt.Errorf("host: non-positive chunk size %d pages", chunkPages)
	case logicalBytes <= 0:
		return l, fmt.Errorf("host: non-positive logical capacity %d", logicalBytes)
	case l.chunks < int64(shards):
		return l, fmt.Errorf("host: address space of %d chunks cannot feed %d shards (shrink -shards or the chunk size)",
			l.chunks, shards)
	}
	return l, nil
}

// ChunkBytes returns the striping granularity in bytes.
func (l Layout) ChunkBytes() int64 { return l.chunkBytes }

// Chunks returns the number of global chunks.
func (l Layout) Chunks() int64 { return l.chunks }

// ShardOfPage returns the shard owning a logical page.
func (l Layout) ShardOfPage(lpn int64) int {
	return int((lpn / l.ChunkPages) % int64(l.Shards))
}

// LocalPage returns a logical page's address inside its owning shard.
func (l Layout) LocalPage(lpn int64) int64 {
	g := lpn / l.ChunkPages
	return (g/int64(l.Shards))*l.ChunkPages + lpn%l.ChunkPages
}

// OwnedChunks returns how many global chunks shard s owns.
func (l Layout) OwnedChunks(s int) int64 {
	n := int64(l.Shards)
	return (l.chunks - int64(s) + n - 1) / n
}

// ShardBytes returns shard s's advertised capacity: its owned chunks, the
// partial tail chunk rounded up to a whole one so every shard's space is
// chunk aligned. A single shard owns the whole space, so it advertises the
// global capacity exactly, unrounded.
func (l Layout) ShardBytes(s int) int64 {
	if l.Shards == 1 {
		return l.LogicalBytes
	}
	return l.OwnedChunks(s) * l.chunkBytes
}

// ImagePages returns the size of the image of the global page prefix
// [0, globalPages) on shard s, in local pages — the per-shard footprint of a
// workload that covers the first globalPages pages.
func (l Layout) ImagePages(s int, globalPages int64) int64 {
	if globalPages <= 0 {
		return 0
	}
	full := globalPages / l.ChunkPages // complete chunks in the prefix
	n := int64(l.Shards)
	owned := (full - int64(s) + n - 1) / n // complete chunks owned by s
	pages := owned * l.ChunkPages
	if full%n == int64(s) { // the partial tail chunk lands on s
		pages += globalPages % l.ChunkPages
	}
	return pages
}

// Fragment is one shard's slice of a host request, already remapped into the
// shard's local byte space.
type Fragment struct {
	Shard int
	Req   trace.Request
}

// Fragments appends request r's per-shard fragments to out and returns it.
// Reads, writes and discards route by LPN: the image of a contiguous global
// range on one shard is a single contiguous local range, so each produces at
// most one fragment per shard. Flushes are barriers and broadcast to every
// shard unchanged.
func (l Layout) Fragments(r trace.Request, out []Fragment) ([]Fragment, error) {
	if err := r.Validate(); err != nil {
		return out, err
	}
	switch r.Op {
	case trace.OpFlush:
		for s := 0; s < l.Shards; s++ {
			out = append(out, Fragment{Shard: s, Req: r})
		}
		return out, nil
	case trace.OpRead, trace.OpWrite, trace.OpWriteFUA, trace.OpTrim:
		// Payload ops: routed below.
	default:
		return out, fmt.Errorf("host: unhandled request op %v", r.Op)
	}
	if r.End() > l.LogicalBytes {
		return out, fmt.Errorf("host: request [%d,%d) beyond capacity %d", r.Offset, r.End(), l.LogicalBytes)
	}
	if l.Shards == 1 {
		// One shard's local space is the global space.
		return append(out, Fragment{Req: r}), nil
	}
	n := int64(l.Shards)
	cb := l.chunkBytes
	ga := r.Offset / cb
	gb := (r.End() - 1) / cb
	for s := int64(0); s < n; s++ {
		// First and last chunks of [ga,gb] owned by shard s.
		g0 := ga + ((s-ga%n)+n)%n
		if g0 > gb {
			continue
		}
		gl := gb - ((gb%n-s)+n)%n
		// The range covers every chunk strictly between ga and gb in full,
		// and consecutive owned chunks are consecutive local chunks, so the
		// shard's image is one contiguous local byte range.
		start := (g0/n)*cb + max64(r.Offset-g0*cb, 0)
		end := (gl/n)*cb + min64(r.End()-gl*cb, cb)
		out = append(out, Fragment{Shard: int(s), Req: trace.Request{
			Arrival: r.Arrival,
			Offset:  start,
			Length:  end - start,
			Op:      r.Op,
		}})
	}
	return out, nil
}

// Partition splits a request stream into per-shard streams, preserving each
// request's order on every shard it touches. Flushes appear in every shard's
// stream; reads, writes and discards split by LPN.
func (l Layout) Partition(reqs []trace.Request) ([][]trace.Request, error) {
	streams := make([][]trace.Request, l.Shards)
	var frags []Fragment
	for i := range reqs {
		var err error
		frags, err = l.Fragments(reqs[i], frags[:0])
		if err != nil {
			return nil, fmt.Errorf("host: request %d: %w", i, err)
		}
		for _, f := range frags {
			streams[f.Shard] = append(streams[f.Shard], f.Req)
		}
	}
	return streams, nil
}

// ShardConfigs derives the per-shard device configurations from a base
// config: each shard advertises its owned chunks, gets an equal split of the
// mapping-cache budget, and a distinct RNG seed. A single shard passes the
// base config through untouched — capacity included, however unaligned —
// which is what keeps the 1-shard host path bit-for-bit compatible with the
// serial device.
func ShardConfigs(base ftl.Config, shards int) (Layout, []ftl.Config, error) {
	pageBytes := base.PageSize
	if pageBytes == 0 {
		pageBytes = ftl.DefaultPageBytes
	}
	lay, err := NewLayout(shards, base.LogicalBytes, pageBytes, 0)
	if err != nil {
		return lay, nil, err
	}
	if shards == 1 {
		return lay, []ftl.Config{base}, nil
	}
	cfgs := make([]ftl.Config, shards)
	for s := range cfgs {
		cfg := base
		cfg.LogicalBytes = lay.ShardBytes(s)
		if base.CacheBytes > 0 {
			cfg.CacheBytes = base.CacheBytes / int64(shards)
			if cfg.CacheBytes < ftl.EntryBytesRAM {
				cfg.CacheBytes = ftl.EntryBytesRAM
			}
		}
		cfg.Seed = base.Seed + int64(s)
		cfgs[s] = cfg
	}
	return lay, cfgs, nil
}

// Digest folds per-shard event hashes into one order-insensitive-across-
// shards digest: each shard's hash is finalized together with its shard
// index and xor-folded, so the digest is independent of the order shard
// results are combined in (and of how shard executions interleaved in wall
// time) while still pinning every shard's full serial schedule.
func Digest(hashes []uint64) uint64 {
	d := mix64(uint64(len(hashes)))
	for i, h := range hashes {
		d ^= mix64(h ^ mix64(uint64(i)+0x9e3779b97f4a7c15))
	}
	return d
}

// mix64 is the splitmix64 finalizer: a bijective avalanche so xor-folding
// per-shard values cannot cancel structured differences.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
