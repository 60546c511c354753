package host

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/ftl"
	"repro/internal/obs/live"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// Options configures how every shard admits requests against its simulated
// backend. The zero value is the serial-compatible closed loop at depth 1.
type Options struct {
	// QueueDepth bounds the simulated in-flight requests per shard
	// (closed loop). 0 selects 1, the serial-compatibility default, unless
	// OpenLoop is set.
	QueueDepth int
	// OpenLoop admits every request at its arrival time instead of waiting
	// for a queue slot; QueueDepth is ignored.
	OpenLoop bool
}

func (o Options) depth() int {
	if o.OpenLoop {
		return 0
	}
	if o.QueueDepth <= 0 {
		return 1
	}
	return o.QueueDepth
}

// Host owns the per-shard devices and routes block requests to them.
// Construct with New, then ReplayStream a trace through it.
type Host struct {
	lay    Layout
	opt    Options
	shards []*shard
}

// shard is one slice of the LPN space: a private device plus the admitter of
// its serial request loop. Everything here is touched only by the goroutine
// serving the shard (or, between runs, by the host's caller), never
// concurrently.
type shard struct {
	id  int
	dev *ftl.Device
	adm *ssd.Admitter // the current run's admission queue
	err error

	// cell is the shard's live-telemetry cell (nil when the plane is off).
	cell *live.Cell
}

// New builds a host over per-shard devices. devs[s] must advertise exactly
// the capacity layout assigns shard s (ShardConfigs produces matching
// configurations).
func New(lay Layout, devs []*ftl.Device, opt Options) (*Host, error) {
	if len(devs) != lay.Shards {
		return nil, fmt.Errorf("host: %d devices for %d shards", len(devs), lay.Shards)
	}
	h := &Host{lay: lay, opt: opt, shards: make([]*shard, lay.Shards)}
	for s, dev := range devs {
		if dev == nil {
			return nil, fmt.Errorf("host: shard %d device is nil", s)
		}
		if got, want := dev.Config().LogicalBytes, lay.ShardBytes(s); got != want {
			return nil, fmt.Errorf("host: shard %d advertises %d B, layout assigns %d B", s, got, want)
		}
		h.shards[s] = &shard{id: s, dev: dev}
	}
	return h, nil
}

// Layout returns the host's LPN→shard map.
func (h *Host) Layout() Layout { return h.lay }

// Device returns shard s's device, for per-shard setup (formatting,
// preconditioning, warming, fault arming) before a run. It must not be
// touched while a replay is running.
func (h *Host) Device(s int) *ftl.Device { return h.shards[s].dev }

// SetLive attaches one live-telemetry cell per shard (cells[s] → shard s;
// nil entries or a nil slice detach). Each shard's device publishes epochs
// and flight-recorder entries into its cell from the goroutine serving the
// shard, which also publishes the queue stats per batch — telemetry rides
// the existing single-writer-per-shard discipline, so replays stay
// bit-for-bit deterministic with the plane on or off.
func (h *Host) SetLive(cells []*live.Cell) {
	for s, sh := range h.shards {
		var c *live.Cell
		if s < len(cells) {
			c = cells[s]
		}
		sh.cell = c
		sh.dev.SetLive(c)
	}
}

// begin starts one run's admission: a fresh admitter seeded from the
// device's clock (see ssd.NewAdmitter), so a run after preconditioning or a
// warm-up phase admits exactly as the serial Device.Serve path would.
func (s *shard) begin(qd int) {
	s.adm = ssd.NewAdmitter(qd, s.dev.Now())
	s.err = nil
}

// admit serves one local request through the shard's admitter. Logical
// effects apply in call order; only simulated timing overlaps. A failure
// names the shard and the request's index in the shard's stream — on one
// shard, its index in the trace.
func (s *shard) admit(r trace.Request) error {
	if _, err := s.adm.Admit(s.dev, r); err != nil {
		return fmt.Errorf("host: shard %d: request %d: %w", s.id, s.adm.Stats().Admitted, err)
	}
	return nil
}

// publishQueue stores the shard's queueing statistics into its live cell:
// the one place queue stats reach the live plane. It runs on the goroutine
// serving the shard, or after the run.
func (s *shard) publishQueue() {
	if s.cell != nil {
		st := s.adm.Stats()
		s.cell.SetQueueStats(st.Admitted, st.DepthSum, st.MaxDepth)
	}
}

// ShardResult is one shard's outcome of a run.
type ShardResult struct {
	Shard int
	// M is the shard device's metrics over the run's measured window, with
	// the shard frontend's queue-depth stats folded in (only when the
	// admission policy actually queues — depth 1 mirrors the serial path,
	// which reports none).
	M ftl.Metrics
	// EventHash is the shard scheduler's order-sensitive hash of every
	// flash operation since device creation.
	EventHash uint64
	// FS is the shard frontend's queueing statistics — the same snapshot
	// struct the live telemetry plane publishes per shard, so the ftlsim
	// report table and a live scrape read identical numbers.
	FS ssd.FrontendStats
}

// Outcome aggregates a run across shards.
type Outcome struct {
	// M merges every shard's metrics (counters and histograms add,
	// watermarks take the max — see ftl.Metrics.Merge).
	M ftl.Metrics
	// Shards holds the per-shard results in shard order.
	Shards []ShardResult
	// Digest is the order-insensitive-across-shards fold of the per-shard
	// event hashes (see Digest).
	Digest uint64
	// Requests is the number of host-level requests routed; Fragments the
	// per-shard fragments they produced (flush barriers count one fragment
	// per shard).
	Requests  int64
	Fragments int64
}

// ReplayOptions tunes the deterministic replay driver.
type ReplayOptions struct {
	// Clients is the total number of concurrent submitter goroutines,
	// spread round-robin over shards (minimum one per shard, which is the
	// default). A one-shard host serves on the caller's goroutine and
	// ignores it.
	Clients int
	// Batch is the number of requests per submission (doorbell coalescing;
	// default 64). Purely a wall-clock knob: the per-shard service order —
	// and so every simulated metric — is independent of it.
	Batch int
}

// DefaultBatch is the submission batch size when ReplayOptions.Batch is 0.
const DefaultBatch = 64

// replayLane is one client goroutine's channel pair: full batches flow
// shard-ward on data, served batches return on free for refilling. Two
// buffers circulate per lane, so a replay's resident request memory is
// O(batch × clients) — independent of trace length.
type replayLane struct {
	data chan []trace.Request
	free chan []trace.Request
}

// ReplayStream routes a streamed request source across the shards and serves
// every shard deterministically: each request is fragmented per shard
// (flushes broadcast, payload ops split by LPN) and every shard admits its
// fragments, in trace order, through its own ssd.Admitter.
//
// A one-shard host serves inline on the calling goroutine: pull a batch,
// route it, admit it — no lane, no channel hop. With more shards the caller
// becomes the router and deals each shard's full batches round-robin across
// its client lanes; the shard's worker takes one batch per lane per turn in
// the same round-robin — so the per-shard service order equals the partition
// order no matter how many clients feed it, what the batch size is, or how
// the Go scheduler interleaves the goroutines. Either way every simulated
// metric, per-shard EventHash and the merged Digest are bit-for-bit
// reproducible, while resident memory stays bounded by the batch buffers,
// never the trace.
func (h *Host) ReplayStream(it trace.Iterator, o ReplayOptions) (*Outcome, error) {
	batch := o.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	qd := h.opt.depth()
	for _, sh := range h.shards {
		sh.begin(qd)
	}
	var requests, fragments int64
	var err error
	if len(h.shards) == 1 {
		requests, fragments, err = h.serveInline(it, batch)
	} else {
		requests, fragments, err = h.serveLanes(it, batch, o.Clients)
	}
	if err != nil {
		return nil, err
	}
	out := h.collect()
	out.Requests = requests
	out.Fragments = fragments
	for _, sh := range h.shards {
		if sh.err != nil {
			return out, sh.err
		}
	}
	return out, nil
}

// serveInline replays it on a one-shard host from the calling goroutine.
// Routing still runs (it validates each request and bounds it by the
// capacity), but on one shard every request is exactly one fragment, so the
// shard's order is the trace's order. It returns a routing or read error;
// an admission failure lands in the shard's err and stops the replay.
func (h *Host) serveInline(it trace.Iterator, batch int) (requests, fragments int64, err error) {
	sh := h.shards[0]
	buf := make([]trace.Request, batch)
	var frags []Fragment
	for sh.err == nil {
		n, rerr := it.Next(buf)
		for i := 0; i < n && sh.err == nil; i++ {
			if frags, err = h.lay.Fragments(buf[i], frags[:0]); err != nil {
				return requests, fragments, fmt.Errorf("host: request %d: %w", requests, err)
			}
			requests++
			for _, f := range frags {
				fragments++
				sh.err = sh.admit(f.Req)
			}
		}
		sh.publishQueue()
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return requests, fragments, fmt.Errorf("host: reading trace after request %d: %w", requests, rerr)
		}
	}
	return requests, fragments, nil
}

// serveLanes replays it on a multi-shard host: the calling goroutine routes,
// one worker goroutine per shard serves. It returns a routing or read error;
// admission failures land in the shards' err fields.
func (h *Host) serveLanes(it trace.Iterator, batch, clients int) (requests, fragments int64, err error) {
	if clients < h.lay.Shards {
		clients = h.lay.Shards
	}
	var wg sync.WaitGroup
	lanes := make([][]replayLane, h.lay.Shards)
	for s, sh := range h.shards {
		k := clientsOfShard(clients, h.lay.Shards, s)
		ls := make([]replayLane, k)
		for i := range ls {
			// Two buffers circulate per lane: one filling at the router, one
			// in flight or being served. The worker returns every buffer, so
			// free (cap 2) can never block it.
			ls[i] = replayLane{
				data: make(chan []trace.Request, 1),
				free: make(chan []trace.Request, 2),
			}
			ls[i].free <- make([]trace.Request, 0, batch)
			ls[i].free <- make([]trace.Request, 0, batch)
		}
		lanes[s] = ls
		wg.Add(1)
		go func(sh *shard, ls []replayLane) {
			defer wg.Done()
			open := len(ls)
			for turn := 0; open > 0; turn = (turn + 1) % len(ls) {
				if ls[turn].data == nil {
					continue
				}
				b, ok := <-ls[turn].data
				if !ok {
					ls[turn].data = nil
					open--
					continue
				}
				// After a failure keep draining (without serving) so the
				// router never blocks on a dead shard.
				if sh.err == nil {
					for i := range b {
						if sh.err = sh.admit(b[i]); sh.err != nil {
							break
						}
					}
					sh.publishQueue()
				}
				ls[turn].free <- b[:0]
			}
		}(sh, ls)
	}

	// The router: fill per-shard batch buffers in request order, rotating to
	// the next lane whenever one fills. The buffer a shard is filling always
	// comes from the pool of the lane it will be sent to.
	cur := make([][]trace.Request, h.lay.Shards)
	turn := make([]int, h.lay.Shards)
	for s := range cur {
		cur[s] = (<-lanes[s][0].free)[:0]
	}
	reqBuf := make([]trace.Request, batch)
	var frags []Fragment
router:
	for {
		n, rerr := it.Next(reqBuf)
		for i := 0; i < n; i++ {
			frags, err = h.lay.Fragments(reqBuf[i], frags[:0])
			if err != nil {
				err = fmt.Errorf("host: request %d: %w", requests, err)
				break router
			}
			requests++
			for _, f := range frags {
				fragments++
				s := f.Shard
				cur[s] = append(cur[s], f.Req)
				if len(cur[s]) == batch {
					lanes[s][turn[s]].data <- cur[s]
					turn[s] = (turn[s] + 1) % len(lanes[s])
					cur[s] = (<-lanes[s][turn[s]].free)[:0]
				}
			}
		}
		if rerr != nil {
			if rerr != io.EOF {
				err = fmt.Errorf("host: reading trace after request %d: %w", requests, rerr)
			}
			break
		}
	}
	for s := range h.shards {
		if err == nil && len(cur[s]) > 0 {
			lanes[s][turn[s]].data <- cur[s]
		}
		for i := range lanes[s] {
			close(lanes[s][i].data)
		}
	}
	wg.Wait()
	return requests, fragments, err
}

// clientsOfShard spreads total clients round-robin over shards; every shard
// gets at least one.
func clientsOfShard(clients, shards, s int) int {
	k := clients / shards
	if s < clients%shards {
		k++
	}
	if k < 1 {
		k = 1
	}
	return k
}

// collect snapshots every shard's metrics and folds the per-shard hashes
// into the merged digest.
func (h *Host) collect() *Outcome {
	out := &Outcome{Shards: make([]ShardResult, len(h.shards))}
	hashes := make([]uint64, len(h.shards))
	for s, sh := range h.shards {
		m := sh.dev.Metrics()
		fs := sh.adm.Stats()
		if h.opt.depth() != 1 {
			// Queue-depth stats exist only when the admission policy
			// actually queues; the depth-1 closed loop mirrors the serial
			// Device.Serve path, which reports none.
			m.MaxQueueDepth = fs.MaxDepth
			m.QueueDepthSum = fs.DepthSum
		}
		hashes[s] = sh.dev.Scheduler().EventHash()
		out.Shards[s] = ShardResult{Shard: s, M: m, EventHash: hashes[s], FS: fs}
		out.M.Merge(&m)
		if sh.cell != nil {
			// Final epoch + queue stats so a scrape after the run (or during
			// a -telemetry-linger wait) sees the exact end-of-run numbers.
			// collect runs after every shard finished serving, so the
			// single-writer rule holds.
			sh.dev.PublishLive()
			sh.publishQueue()
		}
	}
	out.Digest = Digest(hashes)
	return out
}
