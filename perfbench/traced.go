package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/obs/live"
	"repro/internal/sim"
	"repro/internal/trace"
)

// spanRequests is the number of requests (per shard: fragments) after
// warm-up whose calls are kept as full spans.
const spanRequests = 64

// traced is one traced replay. It builds the same stack sim.Run builds, from
// the public functions sim.Run calls, with the translator, the Env the
// translator receives, and (on serial workloads) Device.Serve wrapped in
// timing shims.
type traced struct {
	replay       time.Duration // first pull to the end of the consistency check
	format       time.Duration // Device.Format, summed over shards
	precondition time.Duration // Device.PreconditionRange, summed over shards
	// root collects the replay goroutine: decode, serve and check, plus the
	// translator on serial workloads. shards holds one collector per shard
	// translator on the sharded workload.
	root   *collector
	shards []*collector
	m      ftl.Metrics
	fp     uint64
	flash  flash.Stats // chip operations in the measured phase
	epochs int64       // live-plane epochs published
}

// deviceConfig mirrors the device configuration sim.Run derives from the
// workload's options.
func deviceConfig(s spec) ftl.Config {
	space := s.profile.AddressSpace
	cfg := ftl.DefaultConfig(space)
	cfg.CacheBytes = ftl.DefaultCacheBytes(space)
	cfg.Channels = s.channels
	cfg.Dies = s.dies
	return cfg
}

// footprintPages mirrors sim.Run's preconditioning footprint: the profile's
// footprint, clipped to the trace's address high-water mark.
func footprintPages(s spec, st *trace.Stream, pageSize int) int64 {
	foot := s.profile.FootprintBytes()
	if me := st.MaxEnd(); me > 0 && me < foot {
		foot = me
	}
	return foot / int64(pageSize)
}

// runTraced replays the trace at path through the traced stack.
func runTraced(s spec, path string, n int) (*traced, error) {
	quiesce()
	st, err := trace.OpenBinary(path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if s.shards > 0 {
		return runTracedSharded(s, st, n)
	}
	return runTracedSerial(s, st, n)
}

func runTracedSerial(s spec, st *trace.Stream, n int) (*traced, error) {
	cfg := deviceConfig(s)
	warm := s.warmup(n)
	r := &traced{root: newCollector(int64(warm), int64(warm+spanRequests))}
	tr, err := sim.NewTranslator(s.scheme, cfg.CacheBytes, cfg.LogicalPages(), nil)
	if err != nil {
		return nil, err
	}
	shim := newTracedTranslator(tr, r.root, false)
	dev, err := ftl.NewDevice(cfg, shim)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if err := dev.Format(); err != nil {
		return nil, err
	}
	r.format = time.Since(t)
	foot := footprintPages(s, st, cfg.PageSize)
	t = time.Now()
	if err := dev.PreconditionRange(int(preconditionPasses*float64(foot)), foot, programSeed+1); err != nil {
		return nil, err
	}
	r.precondition = time.Since(t)
	dev.ResetMetrics()
	if w, ok := ftl.Translator(shim).(ftl.Warmer); ok {
		w.Warm(dev.Truth)
	}

	r.root.reset()
	it := &decodeIter{st: st, c: r.root}
	buf := make([]trace.Request, sim.DefaultStreamBatch)
	t1 := time.Now()
	if err := serveAll(dev, trace.Limit(it, int64(warm)), r.root, buf); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	dev.ResetMetrics()
	base := dev.Chip().Stats()
	if err := serveAll(dev, it, r.root, buf); err != nil {
		return nil, err
	}
	r.m = dev.Metrics()
	r.flash = statsDelta(dev.Chip().Stats(), base)
	r.root.enter(layerCheck)
	err = dev.CheckConsistency(shim.DirtyCached())
	r.root.exit()
	r.replay = time.Since(t1)
	if err != nil {
		return nil, fmt.Errorf("post-run consistency: %w", err)
	}
	r.fp = fingerprint(r.m, 0)
	return r, nil
}

// serveAll serves every request of it on dev, one Serve span each.
func serveAll(dev *ftl.Device, it trace.Iterator, c *collector, buf []trace.Request) error {
	for {
		n, err := it.Next(buf)
		for i := 0; i < n; i++ {
			c.enter(layerServe)
			_, serr := dev.Serve(buf[i])
			c.exit()
			if serr != nil {
				return fmt.Errorf("request %d: %w", c.req, serr)
			}
			c.req++
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func runTracedSharded(s spec, st *trace.Stream, n int) (*traced, error) {
	cfg := deviceConfig(s)
	warm := s.warmup(n)
	lay, cfgs, err := host.ShardConfigs(cfg, s.shards)
	if err != nil {
		return nil, err
	}
	r := &traced{root: newCollector(-1, -1), shards: make([]*collector, s.shards)}
	devs := make([]*ftl.Device, s.shards)
	shims := make([]*tracedTranslator, s.shards)
	spanLo := int64(warm / s.shards)
	for sh := range devs {
		tr, err := sim.NewTranslator(s.scheme, cfgs[sh].CacheBytes, cfgs[sh].LogicalPages(), nil)
		if err != nil {
			return nil, err
		}
		r.shards[sh] = newCollector(spanLo, spanLo+spanRequests)
		shims[sh] = newTracedTranslator(tr, r.shards[sh], true)
		if devs[sh], err = ftl.NewDevice(cfgs[sh], shims[sh]); err != nil {
			return nil, err
		}
		t := time.Now()
		if err := devs[sh].Format(); err != nil {
			return nil, err
		}
		r.format += time.Since(t)
	}
	foot := footprintPages(s, st, cfg.PageSize)
	for sh, dev := range devs {
		image := lay.ImagePages(sh, foot)
		t := time.Now()
		if err := dev.PreconditionRange(int(preconditionPasses*float64(image)), image, programSeed+1+int64(sh)); err != nil {
			return nil, err
		}
		r.precondition += time.Since(t)
		dev.ResetMetrics()
	}
	for sh, shim := range shims {
		if w, ok := ftl.Translator(shim).(ftl.Warmer); ok {
			w.Warm(devs[sh].Truth)
		}
	}
	h, err := host.New(lay, devs, host.Options{QueueDepth: s.queueDepth})
	if err != nil {
		return nil, err
	}
	var plane *live.Plane
	if s.live {
		plane = live.NewPlane(0, 0)
		h.SetLive(plane.StartRun(live.RunInfo{
			Scheme:        string(s.scheme),
			Workload:      s.profile.Name,
			Shards:        s.shards,
			TotalRequests: st.Records(),
		}))
	}

	r.root.reset()
	for _, c := range r.shards {
		c.reset()
	}
	it := &decodeIter{st: st, c: r.root}
	opts := host.ReplayOptions{Clients: s.clients}
	t1 := time.Now()
	if _, err := h.ReplayStream(trace.Limit(it, int64(warm)), opts); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var base flash.Stats
	for _, dev := range devs {
		dev.ResetMetrics()
		base = statsSum(base, dev.Chip().Stats())
	}
	out, err := h.ReplayStream(it, opts)
	if err != nil {
		return nil, err
	}
	var end flash.Stats
	for _, dev := range devs {
		end = statsSum(end, dev.Chip().Stats())
	}
	r.m = out.M
	r.flash = statsDelta(end, base)
	r.root.enter(layerCheck)
	for sh, dev := range devs {
		if err = dev.CheckConsistency(shims[sh].DirtyCached()); err != nil {
			err = fmt.Errorf("shard %d post-run consistency: %w", sh, err)
			break
		}
	}
	r.root.exit()
	r.replay = time.Since(t1)
	if err != nil {
		return nil, err
	}
	if plane != nil {
		for _, c := range plane.Cells() {
			if snap := c.Load(); snap != nil {
				r.epochs += snap.Seq
			}
		}
	}
	r.fp = fingerprint(r.m, out.Digest)
	return r, nil
}

func statsSum(a, b flash.Stats) flash.Stats {
	return flash.Stats{Reads: a.Reads + b.Reads, Programs: a.Programs + b.Programs, Erases: a.Erases + b.Erases}
}

func statsDelta(end, base flash.Stats) flash.Stats {
	return flash.Stats{Reads: end.Reads - base.Reads, Programs: end.Programs - base.Programs, Erases: end.Erases - base.Erases}
}

// routeStats times host routing (Layout.Fragments) in a pre-pass over the
// trace, outside every other timed window.
type routeStats struct {
	nsPerReq     float64
	fragsPerReq  float64
	reqImbalance float64 // max/mean fragments per shard
}

func measureRouting(s spec, path string) (routeStats, error) {
	lay, _, err := host.ShardConfigs(deviceConfig(s), s.shards)
	if err != nil {
		return routeStats{}, err
	}
	st, err := trace.OpenBinary(path)
	if err != nil {
		return routeStats{}, err
	}
	defer st.Close()
	buf := make([]trace.Request, sim.DefaultStreamBatch)
	perShard := make([]int64, s.shards)
	var frags []host.Fragment
	var reqs, total int64
	var elapsed time.Duration
	for {
		n, err := st.Next(buf)
		t := time.Now()
		for i := 0; i < n; i++ {
			var ferr error
			if frags, ferr = lay.Fragments(buf[i], frags[:0]); ferr != nil {
				return routeStats{}, ferr
			}
			for _, f := range frags {
				perShard[f.Shard]++
			}
			total += int64(len(frags))
		}
		elapsed += time.Since(t)
		reqs += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			return routeStats{}, err
		}
	}
	if reqs == 0 {
		return routeStats{}, fmt.Errorf("empty trace")
	}
	var max int64
	for _, c := range perShard {
		if c > max {
			max = c
		}
	}
	return routeStats{
		nsPerReq:     float64(elapsed.Nanoseconds()) / float64(reqs),
		fragsPerReq:  float64(total) / float64(reqs),
		reqImbalance: float64(max) * float64(s.shards) / float64(total),
	}, nil
}
