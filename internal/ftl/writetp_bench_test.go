package ftl_test

import (
	"testing"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/trace"
)

// BenchmarkWriteTP measures one translation-page update through the device
// — read-modify-write, program, the GC it triggers, and the verification
// shadow's fold — under the optimal translator, which holds the whole
// mapping in RAM and never writes back, so nothing above the device is
// timed.
//
//	clean    a one-entry writeback to a page with no pending slot: the
//	         fold reads the page's bitmap words and finds nothing.
//	pending  the first 256 slots of the page were trimmed and rewritten;
//	         each writeback carries their entries as they stood after the
//	         trim (unmapped), as a snapshot taken between trim and rewrite
//	         would, so every program folds 256 pending slots again.
func BenchmarkWriteTP(b *testing.B) {
	b.Run("clean", func(b *testing.B) {
		d, _ := newOptimalDevice(b, testConfig())
		updates := []ftl.EntryUpdate{{Off: 5, PPN: d.Truth(5)}}
		benchWriteTP(b, d, updates)
	})
	b.Run("pending", func(b *testing.B) {
		d, _ := newOptimalDevice(b, testConfig())
		const n = 256
		ps := int64(d.Config().PageSize)
		for _, req := range []trace.Request{
			{Offset: 0, Length: n * ps, Op: trace.OpTrim},
			{Offset: 0, Length: n * ps, Op: trace.OpWrite},
		} {
			if _, err := d.Serve(req); err != nil {
				b.Fatal(err)
			}
		}
		updates := make([]ftl.EntryUpdate, n)
		for i := range updates {
			updates[i] = ftl.EntryUpdate{Off: i, PPN: flash.InvalidPPN}
			if !d.PendingBit(ftl.LPN(i)) {
				b.Fatalf("lpn %d not pending after trim and rewrite", i)
			}
		}
		benchWriteTP(b, d, updates)
	})
}

// benchWriteTP pins the update at zero allocations, then times it.
func benchWriteTP(b *testing.B, d *ftl.Device, updates []ftl.EntryUpdate) {
	b.Helper()
	var err error
	op := func() {
		if e := d.WriteTP(0, updates, false); e != nil {
			err = e
		}
	}
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		b.Fatalf("WriteTP allocates %v times per call, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if err := d.CheckConsistency(nil); err != nil {
		b.Fatal(err)
	}
}
