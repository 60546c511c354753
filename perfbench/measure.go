package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/ftl"
	"repro/internal/sim"
	"repro/internal/trace"
)

// untraced is one sim.Run of a workload, timed from outside.
type untraced struct {
	setup  time.Duration // trace open to first pull: Format, preconditioning
	replay time.Duration // first pull to sim.Run's return
	// setupCPU and replayCPU are the process's user+sys CPU over those
	// windows.
	setupCPU, replayCPU time.Duration
	peak                uint64 // Sys - HeapReleased high-water over the run
	fp                  uint64 // simulated fingerprint
	err                 error
}

// runUntraced replays the trace at path through sim.Run, the entry point
// ftlsim uses.
func runUntraced(s spec, path string, n int) untraced {
	quiesce()
	mw := startMemWatch()
	cpu0 := processCPU()
	t0 := time.Now()
	st, err := trace.OpenBinary(path)
	if err != nil {
		mw.stop()
		return untraced{err: err}
	}
	defer st.Close()
	it := &firstPull{Stream: st}
	res, err := sim.Run(s.options(it, n))
	t2 := time.Now()
	cpu2 := processCPU()
	u := untraced{peak: mw.stop()}
	if err == nil && !it.pulled {
		err = fmt.Errorf("sim.Run returned without pulling the trace")
	}
	if err == nil {
		err = checkResult(s, res, n)
	}
	if err != nil {
		u.err = err
		return u
	}
	u.setup = it.at.Sub(t0)
	u.replay = t2.Sub(it.at)
	u.setupCPU = it.cpu - cpu0
	u.replayCPU = cpu2 - it.cpu
	u.fp = fingerprint(res.M, res.Digest)
	return u
}

// checkResult checks what sim.Run reports against the generated trace:
// every request was pulled, and every request after warm-up was served.
// sim.Run itself verifies every read against the ground-truth mapping and
// runs the post-run consistency check.
func checkResult(s spec, res *sim.Result, n int) error {
	if res.TraceStats.Requests != n {
		return fmt.Errorf("trace stats count %d requests, trace holds %d", res.TraceStats.Requests, n)
	}
	if want := int64(n - s.warmup(n)); res.M.Requests != want {
		return fmt.Errorf("measured phase served %d requests, want %d", res.M.Requests, want)
	}
	return nil
}

// fingerprint hashes every simulated counter, the simulated elapsed time
// (part of ftl.Metrics) and the sharded digest.
func fingerprint(m ftl.Metrics, digest uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%d", m, digest)
	return h.Sum64()
}

// firstPull marks the first pull from the trace, which splits set-up from
// replay. Embedding the stream forwards its MaxEnd and Records hints.
type firstPull struct {
	*trace.Stream
	pulled bool
	at     time.Time
	cpu    time.Duration
}

func (f *firstPull) Next(batch []trace.Request) (int, error) {
	if !f.pulled {
		f.pulled = true
		f.at = time.Now()
		f.cpu = processCPU()
	}
	return f.Stream.Next(batch)
}

// quiesce collects garbage and returns freed memory to the OS so each
// repetition starts from the same heap state.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}

// processCPU returns the process's user+sys CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memWatch samples the Go runtime's resident estimate, Sys - HeapReleased
// (the definition cmd/internal/memwatch uses), every memSampleEvery and
// keeps the high-water mark.
type memWatch struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64 // written by the sampler; read after wg.Wait
}

const memSampleEvery = 10 * time.Millisecond

func startMemWatch() *memWatch {
	w := &memWatch{stopc: make(chan struct{})}
	w.peak = residentBytes()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if r := residentBytes(); r > w.peak {
					w.peak = r
				}
			case <-w.stopc:
				return
			}
		}
	}()
	return w
}

// stop ends sampling, takes a last sample and returns the peak in bytes.
func (w *memWatch) stop() uint64 {
	close(w.stopc)
	w.wg.Wait()
	if r := residentBytes(); r > w.peak {
		w.peak = r
	}
	return w.peak
}

func residentBytes() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}
