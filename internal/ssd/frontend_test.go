package ssd

import (
	"math"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestFrontendZeroRequests pins the empty-replay edge: zero stats and a
// zero (not NaN) mean depth, in every admission mode.
func TestFrontendZeroRequests(t *testing.T) {
	for _, qd := range []int{0, 1, 4} {
		sched := NewScheduler(1, 1)
		srv := &fakeServer{s: sched, lat: tProg}
		st, err := admitAll(srv, qd, nil)
		if err != nil {
			t.Fatalf("qd=%d: %v", qd, err)
		}
		if st != (FrontendStats{}) {
			t.Fatalf("qd=%d: empty replay stats = %+v", qd, st)
		}
		if got := st.MeanDepth(); got != 0 || math.IsNaN(got) {
			t.Fatalf("qd=%d: empty replay MeanDepth = %v", qd, got)
		}
		if sched.Now() != 0 {
			t.Fatalf("qd=%d: empty replay advanced the clock to %v", qd, sched.Now())
		}
	}
}

// TestFrontendOpenLoopDepthStats pins the open-loop depth accounting on a
// simultaneous burst: request i is admitted with i earlier requests still
// in flight, so the depths are exactly 1..n.
func TestFrontendOpenLoopDepthStats(t *testing.T) {
	const n = 8
	sched := NewScheduler(1, 1)
	srv := &fakeServer{s: sched, lat: tProg}
	reqs := make([]trace.Request, n)
	for i := range reqs {
		reqs[i] = trace.Request{Offset: int64(i) * 4096, Length: 4096}
	}
	st, err := admitAll(srv, 0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != n || st.MaxDepth != n {
		t.Fatalf("open-loop burst stats = %+v, want admitted=maxdepth=%d", st, n)
	}
	if want := int64(n * (n + 1) / 2); st.DepthSum != want {
		t.Fatalf("open-loop DepthSum = %d, want 1+…+%d = %d", st.DepthSum, n, want)
	}
	if want := float64(n+1) / 2; st.MeanDepth() != want {
		t.Fatalf("open-loop MeanDepth = %v, want %v", st.MeanDepth(), want)
	}
}

// TestFrontendNegativeDepthIsOpenLoop pins the documented contract that a
// non-positive queue depth selects open loop rather than some undefined
// closed loop.
func TestFrontendNegativeDepthIsOpenLoop(t *testing.T) {
	mk := func() []trace.Request {
		reqs := make([]trace.Request, 6)
		for i := range reqs {
			reqs[i] = trace.Request{Offset: int64(i) * 4096, Length: 4096}
		}
		return reqs
	}
	schedNeg := NewScheduler(2, 2)
	stNeg, err := admitAll(&fakeServer{s: schedNeg, lat: tProg}, -3, mk())
	if err != nil {
		t.Fatal(err)
	}
	schedOpen := NewScheduler(2, 2)
	stOpen, err := admitAll(&fakeServer{s: schedOpen, lat: tProg}, 0, mk())
	if err != nil {
		t.Fatal(err)
	}
	if stNeg != stOpen || schedNeg.Now() != schedOpen.Now() {
		t.Fatalf("negative depth diverges from open loop: %+v vs %+v", stNeg, stOpen)
	}
}

// TestFrontendClosedLoopMeanDepth pins that a saturating QD1 replay sits at
// depth exactly 1 for every admission.
func TestFrontendClosedLoopMeanDepth(t *testing.T) {
	sched := NewScheduler(1, 1)
	srv := &fakeServer{s: sched, lat: tProg}
	reqs := make([]trace.Request, 10)
	for i := range reqs {
		reqs[i] = trace.Request{Offset: int64(i) * 4096, Length: 4096}
	}
	st, err := admitAll(srv, 1, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxDepth != 1 || st.MeanDepth() != 1 {
		t.Fatalf("QD1 depth stats = %+v (mean %v), want constant 1", st, st.MeanDepth())
	}
}

// TestAdmitterQD1StartsAtDeviceClock pins the depth-1 seed: a fresh QD1
// admitter holds the device clock in its single slot, so a request that
// arrived earlier is admitted when the device goes idle (Device.Serve's
// admit-at-now rule), while a deeper queue starts empty and admits it at its
// arrival on an idle die.
func TestAdmitterQD1StartsAtDeviceClock(t *testing.T) {
	for _, c := range []struct {
		qd   int
		want time.Duration
	}{{1, 2 * tProg}, {4, tProg}} {
		sched := NewScheduler(4, 1)
		srv := &fakeServer{s: sched, lat: tProg}
		if _, err := admitAll(srv, 1, []trace.Request{{Length: 4096}}); err != nil {
			t.Fatal(err)
		}
		a := NewAdmitter(c.qd, sched.Now())
		got, err := a.Admit(srv, trace.Request{Offset: 4096, Length: 4096})
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("qd=%d: completion %v, want %v", c.qd, got, c.want)
		}
	}
}
