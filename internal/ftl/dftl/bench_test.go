package dftl

import (
	"testing"

	"repro/internal/flash"
	"repro/internal/ftl"
)

// stubEnv is an in-memory ftl.Env over a fixed mapping, lpn → PPN lpn+1.
// ReadTP returns a view of that table, as the device returns a view of its
// persisted content, and writes are counted but not applied. It drives the
// translator with no device underneath, so a benchmark times DFTL alone.
type stubEnv struct {
	table  []flash.PPN
	writes int
}

func newStubEnv(lpns int64) *stubEnv {
	e := &stubEnv{table: make([]flash.PPN, lpns)}
	for lpn := range e.table {
		e.table[lpn] = flash.PPN(lpn + 1)
	}
	return e
}

func (e *stubEnv) EntriesPerTP() int { return ftl.DefaultEntriesPerTP }
func (e *stubEnv) NumTPs() int       { return len(e.table) / ftl.DefaultEntriesPerTP }
func (e *stubEnv) NumLPNs() int64    { return int64(len(e.table)) }

func (e *stubEnv) ReadTP(v ftl.VTPN) ([]flash.PPN, error) {
	lo := int(v) * ftl.DefaultEntriesPerTP
	return e.table[lo : lo+ftl.DefaultEntriesPerTP], nil
}

func (e *stubEnv) WriteTP(ftl.VTPN, []ftl.EntryUpdate, bool) error {
	e.writes++
	return nil
}

func (e *stubEnv) NoteLookup(bool)        {}
func (e *stubEnv) NoteReplacement(bool)   {}
func (e *stubEnv) NoteGCMapUpdate(bool)   {}
func (e *stubEnv) NoteBatchWriteback(int) {}

// BenchmarkDFTL times the translator's per-page operations through a stub
// Env, on a 4096-entry cache over a 64 Ki-LPN space:
//
//	translate-hit   Translate of a cached entry (index load, LRU touch).
//	translate-miss  Translate of an uncached entry: evict the clean LRU
//	                entry, read its translation page's view, install.
//	discard-miss    Discard of an LPN inside the index but not cached, the
//	                common case on a trimmed range.
//	discard-hit     Discard of a cached entry; the cache is refilled,
//	                untimed, whenever it runs empty.
//
// Each case is pinned at zero allocations before it is timed.
func BenchmarkDFTL(b *testing.B) {
	const (
		capacity = 4096
		lpns     = 1 << 16
	)
	// setup returns a translator whose cache holds LPNs [n, 2n) after a
	// miss sweep over [0, 2n), so the index covers [0, 2n).
	setup := func(b *testing.B) (*FTL, *stubEnv) {
		f := New(Config{CacheBytes: capacity * ftl.EntryBytesRAM})
		env := newStubEnv(lpns)
		translate(b, f, env, 0, 2*capacity)
		return f, env
	}
	b.Run("translate-hit", func(b *testing.B) {
		f, env := setup(b)
		i := 0
		benchOp(b, func() {
			translate(b, f, env, ftl.LPN(capacity+i%capacity), 1)
			i++
		})
	})
	b.Run("translate-miss", func(b *testing.B) {
		f, env := setup(b)
		// A sequential sweep over twice the cache misses on every page.
		i := 0
		benchOp(b, func() {
			translate(b, f, env, ftl.LPN(i%(2*capacity)), 1)
			i++
		})
		if env.writes != 0 {
			b.Fatalf("%d writebacks; clean evictions write nothing", env.writes)
		}
	})
	b.Run("discard-miss", func(b *testing.B) {
		f, _ := setup(b)
		i := 0
		benchOp(b, func() {
			f.Discard(ftl.LPN(i % capacity))
			i++
		})
		if f.Len() != capacity {
			b.Fatalf("%d cached entries after discard misses, want %d", f.Len(), capacity)
		}
	})
	b.Run("discard-hit", func(b *testing.B) {
		f, env := setup(b)
		i := 0
		benchOp(b, func() {
			if f.Len() == 0 {
				b.StopTimer()
				translate(b, f, env, capacity, capacity)
				b.StartTimer()
			}
			f.Discard(ftl.LPN(capacity + i%capacity))
			i++
		})
	})
}

// translate looks up n consecutive LPNs from first and checks each result.
func translate(b *testing.B, f *FTL, env *stubEnv, first ftl.LPN, n int) {
	for lpn := first; lpn < first+ftl.LPN(n); lpn++ {
		ppn, err := f.Translate(env, lpn)
		if err != nil {
			b.Fatal(err)
		}
		if ppn != flash.PPN(lpn+1) {
			b.Fatalf("Translate(%d) = %d, want %d", lpn, ppn, lpn+1)
		}
	}
}

// benchOp pins op at zero allocations, then times it.
func benchOp(b *testing.B, op func()) {
	b.Helper()
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		b.Fatalf("allocates %v times per op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
