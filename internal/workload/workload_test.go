package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestProfileValidate(t *testing.T) {
	for _, p := range DefaultProfiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	bad := []func(Profile) Profile{
		func(p Profile) Profile { p.AddressSpace = 0; return p },
		func(p Profile) Profile { p.WriteRatio = 1.5; return p },
		func(p Profile) Profile { p.AvgRequestBytes = 0; return p },
		func(p Profile) Profile { p.SeqReadRatio = -0.1; return p },
		func(p Profile) Profile { p.ZipfTheta = 1.0; return p },
		func(p Profile) Profile { p.MeanInterarrival = 0; return p },
	}
	for i, mut := range bad {
		if err := mut(Financial1()).Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, want := range []string{"Financial1", "Financial2", "MSR-ts", "MSR-src"} {
		p, err := ProfileByName(want)
		if err != nil || p.Name != want {
			t.Fatalf("ProfileByName(%q) = %v, %v", want, p.Name, err)
		}
	}
	if _, err := ProfileByName("zzz"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestScale(t *testing.T) {
	p := MSRts().Scale(64 << 20)
	if p.AddressSpace != 64<<20 {
		t.Fatalf("AddressSpace = %d", p.AddressSpace)
	}
	if p.WriteRatio != MSRts().WriteRatio {
		t.Fatal("Scale must not change ratios")
	}
}

// TestCalibration checks that generated streams match the Table 4 targets
// each profile encodes.
func TestCalibration(t *testing.T) {
	for _, p := range DefaultProfiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			// Scale MSR profiles down so the test stays fast; ratios are
			// scale-invariant.
			if p.AddressSpace > 1<<30 {
				p = p.Scale(1 << 30)
			}
			reqs, err := Generate(p, 60000, 42)
			if err != nil {
				t.Fatal(err)
			}
			s := trace.Summarize(reqs)

			if got := s.WriteRatio(); math.Abs(got-p.WriteRatio) > 0.02 {
				t.Errorf("write ratio = %.3f, want %.3f±0.02", got, p.WriteRatio)
			}
			if got := s.AvgRequestSize(); math.Abs(got-float64(p.AvgRequestBytes)) > 0.15*float64(p.AvgRequestBytes) {
				t.Errorf("avg request = %.0f B, want %d±15%%", got, p.AvgRequestBytes)
			}
			// Sequentiality: the Markov chain's stationary continuation
			// probability equals the target, so measured values should be
			// within a few points.
			if got := s.SeqWriteRatio(); math.Abs(got-p.SeqWriteRatio) > 0.04 {
				t.Errorf("seq write ratio = %.3f, want %.3f±0.04", got, p.SeqWriteRatio)
			}
			if got := s.SeqReadRatio(); math.Abs(got-p.SeqReadRatio) > 0.05 {
				t.Errorf("seq read ratio = %.3f, want %.3f±0.05", got, p.SeqReadRatio)
			}
			if s.MaxEnd > p.AddressSpace {
				t.Errorf("request escapes address space: %d > %d", s.MaxEnd, p.AddressSpace)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(Financial1(), 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(Financial1(), 1000, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across same-seed runs", i)
		}
	}
	c, _ := Generate(Financial1(), 1000, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestArrivalsMonotonic(t *testing.T) {
	reqs, err := Generate(Financial2(), 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			t.Fatalf("arrival went backwards at %d", i)
		}
	}
	// Mean interarrival should be near the profile's target.
	mean := float64(reqs[len(reqs)-1].Arrival) / float64(len(reqs)-1)
	want := float64(Financial2().MeanInterarrival)
	if math.Abs(mean-want) > 0.1*want {
		t.Fatalf("mean interarrival = %.0f, want %.0f±10%%", mean, want)
	}
}

func TestRequestsValid(t *testing.T) {
	for _, p := range DefaultProfiles() {
		p := p.Scale(256 << 20)
		reqs, err := Generate(p, 10000, 11)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range reqs {
			if err := r.Validate(); err != nil {
				t.Fatalf("%s request %d: %v", p.Name, i, err)
			}
			if r.Length%512 != 0 {
				t.Fatalf("%s request %d: length %d not sector aligned", p.Name, i, r.Length)
			}
		}
	}
}

// TestRequestsInsideTinyFootprint pins the length clamp: on footprints
// smaller than typical requests (down to a single page) every request still
// lies wholly inside the footprint, never at a negative offset.
func TestRequestsInsideTinyFootprint(t *testing.T) {
	for _, p := range AllProfiles() {
		for _, space := range []int64{4096, 8192, 3 * 4096, 64 << 10} {
			p := p.Scale(space)
			foot := p.FootprintBytes()
			reqs, err := Generate(p, 2000, 3)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range reqs {
				if err := r.Validate(); err != nil {
					t.Fatalf("%s@%d request %d: %v", p.Name, space, i, err)
				}
				if r.Op != trace.OpFlush && (r.Offset < 0 || r.End() > foot) {
					t.Fatalf("%s@%d request %d: [%d,%d) outside footprint %d",
						p.Name, space, i, r.Offset, r.End(), foot)
				}
			}
		}
	}
}

// TestIteratorMatchesGenerate pins the streamed form of the generator: n
// requests pulled in ragged batches equal Generate(n) exactly.
func TestIteratorMatchesGenerate(t *testing.T) {
	p := FstrimHeavy().Scale(64 << 20)
	want, err := Generate(p, 1000, 9)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	it := g.Iterator(len(want))
	var got []trace.Request
	buf := make([]trace.Request, 77)
	for {
		n, err := it.Next(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			break
		}
	}
	if len(got) != len(want) {
		t.Fatalf("iterator yielded %d requests, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d: iterator %+v, Generate %+v", i, got[i], want[i])
		}
	}
	if _, err := Generate(p, -5, 9); err == nil {
		t.Fatal("negative request count accepted")
	}
}

// TestTemporalLocality verifies the Zipf skew: the hottest 20% of accessed
// pages should absorb well over half the accesses for Financial profiles.
func TestTemporalLocality(t *testing.T) {
	p := Financial1()
	reqs, err := Generate(p, 50000, 5)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	total := 0
	for _, r := range reqs {
		first, last := r.Pages(4096)
		for pg := first; pg <= last; pg++ {
			counts[pg]++
			total++
		}
	}
	// Sort counts descending (simple counting since values are small).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	hist := make([]int, max+1)
	for _, c := range counts {
		hist[c]++
	}
	hot := int(float64(len(counts)) * 0.2)
	taken, sum := 0, 0
	for c := max; c >= 1 && taken < hot; c-- {
		n := hist[c]
		if taken+n > hot {
			n = hot - taken
		}
		taken += n
		sum += n * c
	}
	frac := float64(sum) / float64(total)
	if frac < 0.5 {
		t.Fatalf("hottest 20%% of pages got %.1f%% of accesses, want > 50%%", frac*100)
	}
}

// TestSpatialLocalityRuns verifies that sequential profiles produce longer
// contiguous runs than random profiles.
func TestSpatialLocalityRuns(t *testing.T) {
	runLen := func(p Profile) float64 {
		reqs, err := Generate(p.Scale(512<<20), 20000, 9)
		if err != nil {
			t.Fatal(err)
		}
		runs, cur := 0, 1
		total := 0
		var prevEnd int64 = -1
		for _, r := range reqs {
			if r.Offset == prevEnd {
				cur++
			} else {
				runs++
				total += cur
				cur = 1
			}
			prevEnd = r.End()
		}
		return float64(total) / float64(runs)
	}
	fin := runLen(Financial1())
	msr := runLen(MSRts())
	if msr <= fin {
		t.Fatalf("MSR-ts run length %.2f not longer than Financial1 %.2f", msr, fin)
	}
}

func TestZipfDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := newZipf(rng, 0.8, 1000)
	counts := make([]int, 1000)
	for i := 0; i < 200000; i++ {
		r := z.next()
		if r < 0 || r >= 1000 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	// Rank 0 must be the most popular, and popularity must broadly decay.
	if counts[0] < counts[10] || counts[10] < counts[500] {
		t.Fatalf("zipf not decaying: c0=%d c10=%d c500=%d", counts[0], counts[10], counts[500])
	}
	// Rough head mass check: top 10 ranks should hold >15% of mass at theta 0.8.
	head := 0
	for i := 0; i < 10; i++ {
		head += counts[i]
	}
	if float64(head)/200000 < 0.15 {
		t.Fatalf("zipf head mass %.3f too small", float64(head)/200000)
	}
}

func TestZipfLargeN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := int64(4 << 20) // 4M pages = 16 GB
	z := newZipf(rng, 0.6, n)
	for i := 0; i < 10000; i++ {
		r := z.next()
		if r < 0 || r >= n {
			t.Fatalf("rank %d out of [0,%d)", r, n)
		}
	}
}

func TestZetaApproxAccuracy(t *testing.T) {
	// For n just above the exact-sum cutoff, the approximation must be
	// close to the exact value.
	exact := zetaStatic(20000, 0.8)
	approx := zetaApprox(20000, 0.8)
	if math.Abs(exact-approx)/exact > 0.001 {
		t.Fatalf("zeta approximation off by %.4f%%", 100*math.Abs(exact-approx)/exact)
	}
}

func TestScatterInRange(t *testing.T) {
	for _, n := range []int64{1, 7, 1024, 1 << 20} {
		for r := int64(0); r < 100; r++ {
			if s := scatter(r, n); s < 0 || s >= n {
				t.Fatalf("scatter(%d,%d) = %d", r, n, s)
			}
		}
	}
}

func TestGeneratorRejectsBadProfile(t *testing.T) {
	p := Financial1()
	p.AddressSpace = -1
	if _, err := NewGenerator(p, 1); err == nil {
		t.Fatal("bad profile accepted")
	}
	if _, err := Generate(p, 10, 1); err == nil {
		t.Fatal("bad profile accepted by Generate")
	}
}

// TestQuickArbitraryProfiles: any in-range profile produces valid,
// monotonic, in-bounds request streams.
func TestQuickArbitraryProfiles(t *testing.T) {
	f := func(seed int64, wr, sr, sw, theta, hot, foot uint8, avgReq uint16) bool {
		p := Profile{
			Name:              "quick",
			AddressSpace:      64 << 20,
			WriteRatio:        float64(wr) / 255,
			AvgRequestBytes:   int(avgReq)%32768 + 512,
			SeqReadRatio:      float64(sr) / 255 * 0.9,
			SeqWriteRatio:     float64(sw) / 255 * 0.9,
			ZipfTheta:         float64(theta) / 255 * 0.98,
			HotFraction:       float64(hot) / 255,
			SeqRunPages:       16,
			FootprintFraction: 0.1 + 0.9*float64(foot)/255,
			MeanInterarrival:  1_000_000,
		}
		if err := p.Validate(); err != nil {
			t.Log(err)
			return false
		}
		g, err := NewGenerator(p, seed)
		if err != nil {
			t.Log(err)
			return false
		}
		prev := int64(-1)
		for i := 0; i < 300; i++ {
			r := g.Next()
			if err := r.Validate(); err != nil {
				t.Logf("request %d: %v", i, err)
				return false
			}
			if r.End() > p.AddressSpace {
				t.Logf("request %d escapes address space", i)
				return false
			}
			if r.Arrival < prev {
				t.Logf("request %d arrival not monotone", i)
				return false
			}
			prev = r.Arrival
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
