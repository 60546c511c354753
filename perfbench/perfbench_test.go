package main

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/sim"
)

// testRequests keeps each replay short; the properties checked hold at any
// length.
const testRequests = 20_000

func testTrace(t *testing.T, s spec, seed int64, n int) string {
	t.Helper()
	path, err := traceFile(t.TempDir(), s, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// The traced replay composes the stack itself, through shims; it must
// simulate exactly what sim.Run does on every workload.
func TestTracedFingerprintMatchesRun(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			path := testTrace(t, s, 7, testRequests)
			u := runUntraced(s, path, testRequests)
			if u.err != nil {
				t.Fatal(u.err)
			}
			tr, err := runTraced(s, path, testRequests)
			if err != nil {
				t.Fatal(err)
			}
			if tr.fp != u.fp {
				t.Fatalf("traced fingerprint %016x, sim.Run %016x", tr.fp, u.fp)
			}
			if tr.m.Requests != int64(testRequests-s.warmup(testRequests)) {
				t.Fatalf("traced replay measured %d requests", tr.m.Requests)
			}
		})
	}
}

// The shims answer every optional interface the program type-asserts the
// way the wrapped translator and device do. A missing DirtyCached would not
// change the fingerprint: CheckConsistency would silently skip its
// truth/persist cross-check instead.
func TestShimForwardsOptionalInterfaces(t *testing.T) {
	for _, scheme := range []sim.Scheme{sim.SchemeTPFTL, sim.SchemeDFTL, sim.SchemeSFTL, sim.SchemeCDFTL, sim.SchemeZFTL, sim.SchemeOptimal} {
		inner, err := sim.NewTranslator(scheme, 64<<10, 1<<17, nil)
		if err != nil {
			t.Fatal(err)
		}
		var shim ftl.Translator = newTracedTranslator(inner, newCollector(-1, -1), false)
		if _, ok := inner.(ftl.GeometryAware); ok {
			if _, ok := shim.(ftl.GeometryAware); !ok {
				t.Errorf("%s: shim hides GeometryAware", scheme)
			}
		}
		if _, ok := inner.(ftl.Warmer); ok {
			if _, ok := shim.(ftl.Warmer); !ok {
				t.Errorf("%s: shim hides Warmer", scheme)
			}
		}
		if in, ok := inner.(ftl.Inspector); ok {
			if sh, ok := shim.(ftl.Inspector); !ok || !reflect.DeepEqual(sh.Snapshot(), in.Snapshot()) {
				t.Errorf("%s: shim does not forward Inspector", scheme)
			}
		}
		type dirtier interface {
			DirtyCached() map[ftl.LPN]flash.PPN
		}
		if in, ok := inner.(dirtier); ok {
			if sh, ok := shim.(dirtier); !ok || (sh.DirtyCached() == nil) != (in.DirtyCached() == nil) {
				t.Errorf("%s: shim does not forward DirtyCached", scheme)
			}
		}
	}
	var env ftl.Env = &tracedEnv{}
	if _, ok := env.(interface{ NotePrefetch(int) }); !ok {
		t.Error("traced Env hides NotePrefetch")
	}
}

// On the serial workloads the layers' self times add up to the replay's
// wall time, apart from the driving loop itself, and the flash layer's own
// operation counts equal the device's Result.M counters.
func TestAccounting(t *testing.T) {
	for _, s := range specs {
		if s.shards > 0 {
			continue
		}
		t.Run(s.name, func(t *testing.T) {
			// Long enough that one preemption of the untimed loop between
			// two Serve calls stays well under the tolerance.
			const n = 5 * testRequests
			tr, err := runTraced(s, testTrace(t, s, 3, n), n)
			if err != nil {
				t.Fatal(err)
			}
			c := tr.root
			c.settleDiscards()
			var sum int64
			for l, self := range c.self {
				if self < 0 {
					t.Errorf("%s self time %d ns is negative", layerNames[l], self)
				}
				sum += self
			}
			wall := tr.replay.Nanoseconds()
			off := float64(wall-sum) / float64(wall)
			t.Logf("%.2f%% of the %d ns replay is outside every timed layer", 100*off, wall)
			if off < 0 || off > 0.05 {
				t.Errorf("layer self times sum to %d ns, replay wall %d ns (%.1f%% unaccounted)", sum, wall, 100*off)
			}
			if c.calls[layerServe] != n {
				t.Errorf("%d Serve spans, want %d", c.calls[layerServe], n)
			}
			if tr.flash.Reads != tr.m.FlashReads || tr.flash.Programs != tr.m.FlashPrograms || tr.flash.Erases != tr.m.FlashErases {
				t.Errorf("chip counted %+v, Result.M reads %d programs %d erases %d",
					tr.flash, tr.m.FlashReads, tr.m.FlashPrograms, tr.m.FlashErases)
			}
		})
	}
}

// The span window is written as Chrome trace_event JSON that obsvalidate
// accepts, with every parent recorded before its children.
func TestSpansValidate(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			tr, err := runTraced(s, testTrace(t, s, 5, testRequests), testRequests)
			if err != nil {
				t.Fatal(err)
			}
			var spans int
			for _, c := range append([]*collector{tr.root}, tr.shards...) {
				for i, sp := range c.spans {
					if int(sp.parent) >= i || sp.end < sp.start {
						t.Fatalf("span %d: parent %d, [%d, %d]", i, sp.parent, sp.start, sp.end)
					}
				}
				spans += len(c.spans)
			}
			if spans == 0 {
				t.Fatal("no spans recorded")
			}
			path := t.TempDir() + "/spans.json"
			if err := writeSpans(path, tr); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := obs.ValidateTrace(f); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Inputs depend on the seed argument alone.
func TestTraceFromSeed(t *testing.T) {
	for _, s := range specs {
		read := func(seed int64) []byte {
			b, err := os.ReadFile(testTrace(t, s, seed, testRequests))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if !bytes.Equal(read(1), read(1)) {
			t.Errorf("%s: seed 1 made two different traces", s.name)
		}
		if bytes.Equal(read(1), read(2)) {
			t.Errorf("%s: seeds 1 and 2 made the same trace", s.name)
		}
	}
}

// summarize's quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
	}
	for _, c := range cases {
		m := summarize("x", "s", c.xs)
		if m.q1 != c.q1 || m.med != c.med || m.q3 != c.q3 {
			t.Errorf("%v: got %v %v %v, want %v %v %v", c.xs, m.q1, m.med, m.q3, c.q1, c.med, c.q3)
		}
	}
}
