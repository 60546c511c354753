package ssd

import (
	"testing"
	"time"

	"repro/internal/trace"
)

const (
	tRead  = 25 * time.Microsecond
	tProg  = 200 * time.Microsecond
	tErase = 1500 * time.Microsecond
)

func TestSingleDieSerializes(t *testing.T) {
	s := NewScheduler(1, 1)
	s.BeginRequest(0)
	s.Issue(0, tRead)
	s.BreakChain() // independent sub-op, but the single die still serializes
	s.Issue(0, tProg)
	end := s.EndRequest()
	if want := tRead + tProg; end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
	if s.Now() != end {
		t.Fatalf("Now = %v, want %v", s.Now(), end)
	}
}

func TestIndependentChainsOverlapAcrossDies(t *testing.T) {
	s := NewScheduler(4, 1)
	s.BeginRequest(0)
	for die := 0; die < 4; die++ {
		s.BreakChain()
		s.Issue(die, tProg)
	}
	if end := s.EndRequest(); end != tProg {
		t.Fatalf("4 independent programs on 4 dies = %v, want %v", end, tProg)
	}
}

func TestChainedOpsRespectDependency(t *testing.T) {
	s := NewScheduler(4, 1)
	s.BeginRequest(0)
	s.Issue(0, tRead) // translation read on die 0 ...
	s.Issue(1, tRead) // ... gates the data read even on an idle die
	if end := s.EndRequest(); end != 2*tRead {
		t.Fatalf("chained reads = %v, want %v", end, 2*tRead)
	}
}

func TestDieOccupancyDelaysLaterRequest(t *testing.T) {
	s := NewScheduler(2, 1)
	s.BeginRequest(0)
	s.Issue(0, tErase)
	s.EndRequest()
	// Admitted at 0 but die 0 is busy until tErase; die 1 is free.
	s.BeginRequest(0)
	s.Issue(1, tRead)
	s.Issue(0, tRead)
	if end := s.EndRequest(); end != tErase+tRead {
		t.Fatalf("end = %v, want %v", end, tErase+tRead)
	}
}

func TestBusyAccounting(t *testing.T) {
	s := NewScheduler(2, 2) // dies 0..3; channel 0 serves dies 0,2; channel 1 serves 1,3
	s.BeginRequest(0)
	s.Issue(0, tRead)
	s.Issue(2, tProg)
	s.Issue(3, tErase)
	s.EndRequest()
	if got := s.ChannelBusy(0); got != tRead+tProg {
		t.Fatalf("channel 0 busy = %v, want %v", got, tRead+tProg)
	}
	if got := s.ChannelBusy(1); got != tErase {
		t.Fatalf("channel 1 busy = %v, want %v", got, tErase)
	}
	if got := s.DieBusy(1); got != 0 {
		t.Fatalf("die 1 busy = %v, want 0", got)
	}
}

func TestEventHashOrderSensitive(t *testing.T) {
	a := NewScheduler(2, 1)
	a.BeginRequest(0)
	a.Issue(0, tRead)
	a.Issue(1, tProg)
	a.EndRequest()

	b := NewScheduler(2, 1)
	b.BeginRequest(0)
	b.Issue(1, tProg)
	b.Issue(0, tRead)
	b.EndRequest()

	if a.EventHash() == b.EventHash() {
		t.Fatal("different schedules produced equal event hashes")
	}

	c := NewScheduler(2, 1)
	c.BeginRequest(0)
	c.Issue(0, tRead)
	c.Issue(1, tProg)
	c.EndRequest()
	if a.EventHash() != c.EventHash() {
		t.Fatal("identical schedules produced different event hashes")
	}
}

func TestEventQueueOrdering(t *testing.T) {
	var q EventQueue
	q.Push(Event{Time: 30, Seq: 1})
	q.Push(Event{Time: 10, Seq: 2})
	q.Push(Event{Time: 10, Seq: 3})
	q.Push(Event{Time: 20, Seq: 4})
	if e, ok := q.Peek(); !ok || e.Time != 10 || e.Seq != 2 {
		t.Fatalf("peek = %+v", e)
	}
	var got []int64
	for q.Len() > 0 {
		got = append(got, q.Pop().Seq)
	}
	want := []int64{2, 3, 4, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// fakeServer serves each request with one fixed-latency op on a round-robin
// die.
type fakeServer struct {
	s   *Scheduler
	lat time.Duration
	i   int
}

func (f *fakeServer) ServeAt(_ trace.Request, admit time.Duration) (time.Duration, error) {
	f.s.BeginRequest(admit)
	f.s.Issue(f.i%f.s.Dies(), f.lat)
	f.i++
	return f.s.EndRequest(), nil
}

// admitAll feeds reqs in order through a fresh admitter of the given queue
// depth, started at the scheduler's clock, and returns its queueing stats.
func admitAll(srv *fakeServer, qd int, reqs []trace.Request) (FrontendStats, error) {
	a := NewAdmitter(qd, srv.s.Now())
	for _, r := range reqs {
		if _, err := a.Admit(srv, r); err != nil {
			return a.Stats(), err
		}
	}
	return a.Stats(), nil
}

func TestFrontendClosedLoopDepthBound(t *testing.T) {
	sched := NewScheduler(4, 1)
	srv := &fakeServer{s: sched, lat: tProg}
	reqs := make([]trace.Request, 16)
	for i := range reqs {
		reqs[i] = trace.Request{Offset: int64(i) * 4096, Length: 4096}
	}
	st, err := admitAll(srv, 4, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxDepth > 4 {
		t.Fatalf("closed loop exceeded depth: %d", st.MaxDepth)
	}
	// 16 programs over 4 dies, 4 in flight: 4 waves of tProg.
	if want := 4 * tProg; sched.Now() != want {
		t.Fatalf("makespan = %v, want %v", sched.Now(), want)
	}
}

func TestFrontendQD1MatchesScalarClock(t *testing.T) {
	sched := NewScheduler(4, 1)
	srv := &fakeServer{s: sched, lat: tProg}
	reqs := make([]trace.Request, 8)
	for i := range reqs {
		reqs[i] = trace.Request{Offset: int64(i) * 4096, Length: 4096}
	}
	if _, err := admitAll(srv, 1, reqs); err != nil {
		t.Fatal(err)
	}
	// One at a time: no overlap even with 4 dies available.
	if want := 8 * tProg; sched.Now() != want {
		t.Fatalf("makespan = %v, want %v", sched.Now(), want)
	}
}

func TestFrontendOpenLoopAdmitsAtArrival(t *testing.T) {
	sched := NewScheduler(4, 1)
	srv := &fakeServer{s: sched, lat: tProg}
	// All arrive at t=0: open loop admits all at once; 8 programs over 4
	// dies finish in 2 waves.
	reqs := make([]trace.Request, 8)
	for i := range reqs {
		reqs[i] = trace.Request{Offset: int64(i) * 4096, Length: 4096}
	}
	st, err := admitAll(srv, 0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * tProg; sched.Now() != want {
		t.Fatalf("makespan = %v, want %v", sched.Now(), want)
	}
	if st.MaxDepth != 8 {
		t.Fatalf("open-loop max depth = %d, want 8", st.MaxDepth)
	}
}
