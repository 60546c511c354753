// Package hostq exercises globalstate on the shapes the sharded host
// frontend (internal/host) is tempted to keep at package level. Every shard
// worker goroutine runs this code concurrently, so a package-level tally,
// clock or scratch buffer is a data race waiting for the race detector —
// exactly what the analyzer exists to catch before it compiles.
package hostq

import "sync/atomic"

// A completion tally shared by every shard worker: must live in per-shard
// state (the shard struct), not here.
var completions map[int]int64 // want `mutable type`

// A fold of per-shard event hashes: the merged digest is computed after the
// workers join, never accumulated through a package-level slice.
var shardHashes []uint64 // want `mutable type`

// An admission clock at package level would serialize the shards' scheduler
// clocks through shared memory — the exact coupling sharding removes.
var admitClock int64 // want `written or aliased after initialization`

// The one sanctioned shape: a monotonic queue-ID source that is atomic and
// feeds error messages only, never simulation state.
//
//ftl:shardsafe monotonic ID source, atomic, never read by simulation state
var nextQueueID atomic.Int64

func admit(now int64) {
	if now > admitClock {
		admitClock = now
	}
}

func queueID() int64 { return nextQueueID.Add(1) }
