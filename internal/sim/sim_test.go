package sim

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/flash"
	"repro/internal/trace"
	"repro/internal/workload"
)

// small returns a fast experiment configuration: 64 MB Financial-style
// devices, tens of thousands of requests.
func small() ExpConfig {
	return ExpConfig{Requests: 25_000, MSRScale: 256 << 20, Seed: 7, Warmup: 2_500}
}

// smallProfile shrinks a workload for unit-test speed.
func smallProfile(p workload.Profile) workload.Profile {
	return p.Scale(64 << 20)
}

func TestRunBasic(t *testing.T) {
	r, err := Run(Options{
		Scheme:   SchemeDFTL,
		Profile:  smallProfile(workload.Financial1()),
		Requests: 5_000,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.M.Requests != 5_000 {
		t.Fatalf("requests = %d", r.M.Requests)
	}
	if r.M.Lookups == 0 || r.M.PageAccesses() == 0 {
		t.Fatalf("no activity recorded: %+v", r.M)
	}
	if r.Scheme != SchemeDFTL || r.Workload != "Financial1" {
		t.Fatalf("labels: %s %s", r.Scheme, r.Workload)
	}
	// Paper convention: 64 MB → 256 blocks → 1 KB cache.
	if r.CacheBytes != 1024 {
		t.Fatalf("cache = %d, want 1024", r.CacheBytes)
	}
}

func TestFullTableBytes(t *testing.T) {
	if got := FullTableBytes(512 << 20); got != 1<<20 {
		t.Fatalf("512MB table = %d, want 1MB", got)
	}
	// 1/128 of the table equals the default convention.
	if got := int64(float64(FullTableBytes(512<<20)) / 128); got != 8<<10 {
		t.Fatalf("1/128 = %d, want 8KB", got)
	}
}

func TestCacheFraction(t *testing.T) {
	r, err := Run(Options{
		Scheme:        SchemeTPFTL,
		Profile:       smallProfile(workload.Financial2()),
		Requests:      2_000,
		Seed:          2,
		CacheFraction: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheBytes != FullTableBytes(64<<20) {
		t.Fatalf("full-fraction cache = %d", r.CacheBytes)
	}
	// Whole table cached: after warm-up, the dirty-replacement probability
	// must be 0 (no replacements at all).
	if r.M.Replacements != 0 {
		t.Fatalf("replacements = %d with full-table cache", r.M.Replacements)
	}
}

func TestUnknownScheme(t *testing.T) {
	if _, err := Run(Options{Scheme: "nope", Profile: smallProfile(workload.Financial1()), Requests: 10}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestTraceReplayOverridesGeneration(t *testing.T) {
	p := smallProfile(workload.Financial1())
	gen, err := workload.Generate(p, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Options{Scheme: SchemeOptimal, Profile: p, Trace: gen})
	if err != nil {
		t.Fatal(err)
	}
	if r.M.Requests != 500 {
		t.Fatalf("requests = %d, want 500", r.M.Requests)
	}
}

// TestHeadlineShapes verifies the paper's core comparative results at small
// scale: TPFTL beats DFTL on Prd, hit ratio and translation traffic;
// Optimal bounds everyone.
func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison")
	}
	p := smallProfile(workload.Financial1())
	run := func(s Scheme) *Result {
		r, err := Run(Options{
			Scheme: s, Profile: p, Requests: 40_000, Seed: 7,
			ResetAfterWarmup: 4_000, Precondition: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		return r
	}
	dftl := run(SchemeDFTL)
	tpftl := run(SchemeTPFTL)
	sftl := run(SchemeSFTL)
	opt := run(SchemeOptimal)

	t.Logf("%-8s Prd=%.3f Hr=%.3f TW=%d TR=%d resp=%v WA=%.2f erases=%d",
		"DFTL", dftl.M.Prd(), dftl.M.Hr(), dftl.M.TransWrites(), dftl.M.TransReads(), dftl.M.AvgResponse(), dftl.M.WriteAmplification(), dftl.M.FlashErases)
	t.Logf("%-8s Prd=%.3f Hr=%.3f TW=%d TR=%d resp=%v WA=%.2f erases=%d",
		"TPFTL", tpftl.M.Prd(), tpftl.M.Hr(), tpftl.M.TransWrites(), tpftl.M.TransReads(), tpftl.M.AvgResponse(), tpftl.M.WriteAmplification(), tpftl.M.FlashErases)
	t.Logf("%-8s Prd=%.3f Hr=%.3f TW=%d TR=%d resp=%v WA=%.2f erases=%d",
		"S-FTL", sftl.M.Prd(), sftl.M.Hr(), sftl.M.TransWrites(), sftl.M.TransReads(), sftl.M.AvgResponse(), sftl.M.WriteAmplification(), sftl.M.FlashErases)
	t.Logf("%-8s Prd=%.3f Hr=%.3f TW=%d TR=%d resp=%v WA=%.2f erases=%d",
		"Optimal", opt.M.Prd(), opt.M.Hr(), opt.M.TransWrites(), opt.M.TransReads(), opt.M.AvgResponse(), opt.M.WriteAmplification(), opt.M.FlashErases)

	if opt.M.Hr() != 1 || opt.M.TransWrites() != 0 || opt.M.TransReads() != 0 {
		t.Error("optimal FTL must have no translation overhead")
	}
	if tpftl.M.Prd() >= dftl.M.Prd() {
		t.Errorf("TPFTL Prd %.3f not below DFTL %.3f", tpftl.M.Prd(), dftl.M.Prd())
	}
	if tpftl.M.Hr() < dftl.M.Hr() {
		t.Errorf("TPFTL Hr %.3f below DFTL %.3f", tpftl.M.Hr(), dftl.M.Hr())
	}
	if tpftl.M.TransWrites() >= dftl.M.TransWrites() {
		t.Errorf("TPFTL trans writes %d not below DFTL %d", tpftl.M.TransWrites(), dftl.M.TransWrites())
	}
	if tpftl.M.WriteAmplification() > dftl.M.WriteAmplification() {
		t.Errorf("TPFTL WA %.2f above DFTL %.2f", tpftl.M.WriteAmplification(), dftl.M.WriteAmplification())
	}
	if tpftl.M.AvgResponse() > dftl.M.AvgResponse() {
		t.Errorf("TPFTL response %v above DFTL %v", tpftl.M.AvgResponse(), dftl.M.AvgResponse())
	}
	if opt.M.AvgResponse() > tpftl.M.AvgResponse() {
		t.Errorf("optimal response %v above TPFTL %v", opt.M.AvgResponse(), tpftl.M.AvgResponse())
	}
}

func TestTable2Derivation(t *testing.T) {
	cells := []ComparisonCell{
		{Workload: "W", Scheme: SchemeDFTL, Resp: 200, Erases: 100},
		{Workload: "W", Scheme: SchemeOptimal, Resp: 100, Erases: 60},
	}
	rows := Table2(cells)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Performance != 0.5 {
		t.Fatalf("performance = %v", rows[0].Performance)
	}
	if rows[0].Erasure != 0.4 {
		t.Fatalf("erasure = %v", rows[0].Erasure)
	}
}

func TestAblationVariantsOrder(t *testing.T) {
	vs := AblationVariants(1024)
	want := []string{"–", "b", "c", "bc", "r", "s", "rs", "rsbc"}
	if len(vs) != len(want) {
		t.Fatalf("variants = %d", len(vs))
	}
	for i, v := range vs {
		if v.VariantName() != want[i] {
			t.Fatalf("variant %d = %q, want %q", i, v.VariantName(), want[i])
		}
		if !v.CompressEntries {
			t.Fatalf("variant %q lost compression", want[i])
		}
	}
}

func TestNormalizeToDFTL(t *testing.T) {
	cells := []ComparisonCell{
		{Workload: "W", Scheme: SchemeDFTL, TWrites: 100},
		{Workload: "W", Scheme: SchemeTPFTL, TWrites: 40},
	}
	n := NormalizeToDFTL(cells, func(c ComparisonCell) float64 { return float64(c.TWrites) })
	if n["W"][SchemeDFTL] != 1 || n["W"][SchemeTPFTL] != 0.4 {
		t.Fatalf("normalized = %v", n)
	}
}

func TestSamplingProducesSamples(t *testing.T) {
	var ref []Sample
	for _, shards := range []int{0, 1} {
		r, err := Run(Options{
			Scheme: SchemeDFTL, Profile: smallProfile(workload.Financial1()),
			Requests: 8_000, Seed: 5, SampleEvery: 1_000, Shards: shards,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(r.Samples) < 5 {
			t.Fatalf("shards=%d: samples = %d", shards, len(r.Samples))
		}
		for _, s := range r.Samples {
			if s.TPNodes < 0 || s.Entries < s.TPNodes {
				t.Fatalf("shards=%d: bad sample %+v", shards, s)
			}
		}
		if ref == nil {
			ref = r.Samples
		} else if !reflect.DeepEqual(r.Samples, ref) {
			t.Fatalf("shards=%d: samples diverge from shards=0", shards)
		}
	}
}

// TestRunRejectsBadOptions pins the input contract: options no run can
// honour return an error — never a panic, and never a malformed request
// handed to the device. A footprint smaller than the mean request (one
// 4 KiB page) is valid and must run.
func TestRunRejectsBadOptions(t *testing.T) {
	p := smallProfile(workload.Financial1())
	cases := []struct {
		name    string
		o       Options
		wantErr bool
	}{
		{"negative requests", Options{Profile: p, Requests: -5}, true},
		{"negative shards", Options{Profile: p, Requests: 100, Shards: -1}, true},
		{"negative cache fraction", Options{Profile: p, Requests: 100, CacheFraction: -1}, true},
		{"negative cache bytes", Options{Profile: p, Requests: 100, CacheBytes: -1}, true},
		{"trace and stream", Options{Profile: p, Trace: []trace.Request{},
			TraceStream: trace.NewSliceIterator(nil)}, true},
		{"sampling on two shards", Options{Profile: p, Requests: 100, Shards: 2, SampleEvery: 10}, true},
		{"export on two shards", Options{Profile: p, Requests: 100, Shards: 2, MetricsOut: io.Discard}, true},
		{"faults on two shards", Options{Profile: p, Requests: 100, Shards: 2,
			Faults: &flash.FaultPlan{Seed: 1, ReadProb: 0.01}}, true},
		{"one-page footprint", Options{Profile: p, AddressSpace: 4096, Requests: 500}, false},
		{"one-page footprint, one shard", Options{Profile: p, AddressSpace: 4096, Requests: 500, Shards: 1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.o.Scheme = SchemeTPFTL
			_, err := Run(c.o)
			if (err != nil) != c.wantErr {
				t.Fatalf("err = %v, want error %v", err, c.wantErr)
			}
		})
	}
}

// TestSingleShardUnalignedCapacity pins the 1-shard identity on capacities
// that are not a whole number of 4 MiB chunks: routing through the host with
// Shards: 1 must accept them and reproduce the Shards: 0 metrics exactly.
func TestSingleShardUnalignedCapacity(t *testing.T) {
	for _, space := range []int64{64<<20 + 4096, 10 << 20, 3<<20 + 8192} {
		var ref *Result
		for _, shards := range []int{0, 1} {
			r, err := Run(Options{
				Scheme: SchemeTPFTL, Profile: workload.Financial1(), AddressSpace: space,
				Requests: 3_000, Seed: 4, Precondition: 0.5, ResetAfterWarmup: 300, Shards: shards,
			})
			if err != nil {
				t.Fatalf("space=%d shards=%d: %v", space, shards, err)
			}
			if ref == nil {
				ref = r
			} else if !reflect.DeepEqual(r.M, ref.M) {
				t.Fatalf("space=%d: shards=1 metrics diverge from shards=0:\n got  %+v\n want %+v", space, r.M, ref.M)
			}
		}
	}
}

// TestRunErrorNamesRequest pins error reporting: a request the host cannot
// route names its index in the trace, and one that fails on the device also
// names its shard.
func TestRunErrorNamesRequest(t *testing.T) {
	p := smallProfile(workload.Financial1())
	reqs := []trace.Request{
		{Offset: 0, Length: 4096, Op: trace.OpWrite},
		{Offset: 4096, Length: 4096, Op: trace.OpRead},
		{Offset: p.AddressSpace, Length: 4096, Op: trace.OpRead},
	}
	_, err := Run(Options{Scheme: SchemeTPFTL, Profile: p, Trace: reqs})
	if err == nil || !strings.Contains(err.Error(), "request 2") {
		t.Fatalf("out-of-range request: err = %v, want it to name request 2", err)
	}
	_, err = Run(Options{Scheme: SchemeTPFTL, Profile: p, Requests: 3_000, Seed: 5,
		Faults: &flash.FaultPlan{Seed: 9, CutAtOp: 400}})
	if err == nil || !strings.Contains(err.Error(), "shard 0: request ") {
		t.Fatalf("power cut: err = %v, want it to name the shard and request", err)
	}
}

// TestSmallComparisonSuite smoke-tests the full experiment drivers at tiny
// scale.
func TestSmallComparisonSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	e := ExpConfig{Requests: 6_000, MSRScale: 64 << 20, Seed: 7, Warmup: 600}
	// Note Financial profiles are 512 MB; shrink via profiles()' MSR rule
	// only applies to larger-than-scale spaces, so this also shrinks them.
	cells, err := e.RunComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 16 {
		t.Fatalf("cells = %d, want 4 workloads × 4 schemes", len(cells))
	}
	rows := Table2(cells)
	if len(rows) != 4 {
		t.Fatalf("table2 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Performance < 0 || r.Performance > 1 {
			t.Errorf("%s: performance deviation %v out of range", r.Workload, r.Performance)
		}
	}
}

func TestAblationSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	e := ExpConfig{Requests: 8_000, MSRScale: 64 << 20, Seed: 7, Warmup: 800}
	cells, err := e.RunAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 9 {
		t.Fatalf("cells = %d, want DFTL + 8 variants", len(cells))
	}
	byName := map[string]AblationCell{}
	for _, c := range cells {
		byName[c.Variant] = c
	}
	// The paper's qualitative ordering: 'b' reduces Prd versus '–'.
	if byName["b"].Prd >= byName["–"].Prd {
		t.Errorf("batch update did not reduce Prd: %.3f vs %.3f", byName["b"].Prd, byName["–"].Prd)
	}
	// 'rs' raises the hit ratio versus '–'.
	if byName["rs"].Hr < byName["–"].Hr {
		t.Errorf("prefetching lowered hit ratio: %.3f vs %.3f", byName["rs"].Hr, byName["–"].Hr)
	}
}

func TestCacheSweepMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	p := smallProfile(workload.Financial1())
	var prevHr float64 = -1
	for _, frac := range []float64{1.0 / 128, 1.0 / 16, 1} {
		r, err := Run(Options{
			Scheme: SchemeTPFTL, Profile: p, Requests: 20_000, Seed: 7,
			CacheFraction: frac, ResetAfterWarmup: 2_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if hr := r.M.Hr(); hr < prevHr-0.02 {
			t.Errorf("hit ratio decreased with larger cache: %.3f after %.3f", hr, prevHr)
		} else {
			prevHr = hr
		}
		if frac == 1 {
			if r.M.Prd() != 0 {
				t.Errorf("Prd = %.3f at full cache, want 0", r.M.Prd())
			}
			// Hr stays below 1 only by compulsory first-touch misses,
			// which this short run does not fully amortize.
			if r.M.Hr() < 0.85 {
				t.Errorf("Hr = %.4f at full cache, want ≥0.85", r.M.Hr())
			}
		}
	}
}
