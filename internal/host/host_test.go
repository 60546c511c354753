package host

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// newTPFTLDevice builds and formats one TPFTL-backed device.
func newTPFTLDevice(t *testing.T, cfg ftl.Config) *ftl.Device {
	t.Helper()
	cache := cfg.CacheBytes
	if cache == 0 {
		cache = ftl.DefaultCacheBytes(cfg.LogicalBytes)
	}
	dev, err := ftl.NewDevice(cfg, core.New(core.DefaultConfig(cache)))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Format(); err != nil {
		t.Fatal(err)
	}
	return dev
}

// newTestHost shards a base config and builds a host over fresh formatted,
// preconditioned devices. Preconditioning is per shard and seeded by the
// shard config, so two hosts built from the same base start identical.
func newTestHost(t *testing.T, base ftl.Config, shards int, opt Options) *Host {
	t.Helper()
	lay, cfgs, err := ShardConfigs(base, shards)
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]*ftl.Device, shards)
	for s := range devs {
		devs[s] = newTPFTLDevice(t, cfgs[s])
		pages := cfgs[s].LogicalPages()
		if err := devs[s].PreconditionRange(int(pages), pages, cfgs[s].Seed+1); err != nil {
			t.Fatal(err)
		}
		devs[s].ResetMetrics()
	}
	h, err := New(lay, devs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// mixedTrace generates a deterministic stream of reads, writes, FUA writes,
// trims and flushes with non-decreasing arrivals over the given space.
func mixedTrace(seed int64, n int, space, pageBytes int64, arrivalStep int64) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]trace.Request, 0, n)
	var arrival int64
	for i := 0; i < n; i++ {
		if arrivalStep > 0 {
			arrival += rng.Int63n(arrivalStep)
		}
		roll := rng.Intn(100)
		if roll < 4 {
			reqs = append(reqs, trace.Request{Arrival: arrival, Op: trace.OpFlush})
			continue
		}
		op := trace.OpRead
		switch {
		case roll < 12:
			op = trace.OpTrim
		case roll < 20:
			op = trace.OpWriteFUA
		case roll < 55:
			op = trace.OpWrite
		}
		pages := space / pageBytes
		first := rng.Int63n(pages)
		span := 1 + rng.Int63n(min64(16, pages-first))
		reqs = append(reqs, trace.Request{
			Arrival: arrival,
			Offset:  first * pageBytes,
			Length:  span * pageBytes,
			Op:      op,
		})
	}
	return reqs
}

// serveAll serves reqs in order on dev through Device.Serve, the serial
// driver's admit-at-now rule.
func serveAll(t *testing.T, dev *ftl.Device, reqs []trace.Request) {
	t.Helper()
	for i, r := range reqs {
		if _, err := dev.Serve(r); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// admitAll feeds reqs in order through a fresh ssd.Admitter of the given
// depth and returns dev's metrics with the queue stats folded in.
func admitAll(t *testing.T, dev *ftl.Device, qd int, reqs []trace.Request) ftl.Metrics {
	t.Helper()
	a := ssd.NewAdmitter(qd, dev.Now())
	for i, r := range reqs {
		if _, err := a.Admit(dev, r); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	m := dev.Metrics()
	m.MaxQueueDepth = a.Stats().MaxDepth
	m.QueueDepthSum = a.Stats().DepthSum
	return m
}

// replay runs reqs through h.ReplayStream from an in-memory slice.
func replay(h *Host, reqs []trace.Request, o ReplayOptions) (*Outcome, error) {
	return h.ReplayStream(trace.NewSliceIterator(reqs), o)
}

// TestReplaySerialEquivalence pins the 1-shard host path to the serial
// drivers bit-for-bit: depth 1 against Device.Serve, deeper queues and open
// loop against a bare ssd.Admitter — same metrics, same event hash, however
// many client goroutines the caller asks for.
func TestReplaySerialEquivalence(t *testing.T) {
	const space = 16 << 20
	base := ftl.DefaultConfig(space)
	base.Seed = 42
	reqs := mixedTrace(1, 4000, space, int64(base.PageSize), 3000)

	cases := []struct {
		name    string
		opt     Options
		clients int
		legacy  func(t *testing.T, dev *ftl.Device) ftl.Metrics
	}{
		{"qd1", Options{}, 3, func(t *testing.T, dev *ftl.Device) ftl.Metrics {
			serveAll(t, dev, reqs)
			return dev.Metrics() // what sim.Run reports (fills Elapsed/ChanBusy)
		}},
		{"qd4", Options{QueueDepth: 4}, 2, func(t *testing.T, dev *ftl.Device) ftl.Metrics {
			return admitAll(t, dev, 4, reqs)
		}},
		{"openloop", Options{OpenLoop: true}, 4, func(t *testing.T, dev *ftl.Device) ftl.Metrics {
			return admitAll(t, dev, 0, reqs)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newTestHost(t, base, 1, c.opt)
			out, err := replay(h, reqs, ReplayOptions{Clients: c.clients, Batch: 7})
			if err != nil {
				t.Fatal(err)
			}

			legacyHost := newTestHost(t, base, 1, c.opt) // identical setup, legacy driver
			dev := legacyHost.Device(0)
			want := c.legacy(t, dev)

			if got := out.Shards[0].M; !reflect.DeepEqual(got, want) {
				t.Errorf("shard metrics diverge from legacy driver:\n got  %+v\n want %+v", got, want)
			}
			if got, want := out.Shards[0].EventHash, dev.Scheduler().EventHash(); got != want {
				t.Errorf("event hash %#x, legacy %#x", got, want)
			}
			if out.Digest != Digest([]uint64{dev.Scheduler().EventHash()}) {
				t.Errorf("merged digest does not fold the legacy hash")
			}
			if out.Requests != int64(len(reqs)) || out.Fragments != int64(len(reqs)) {
				t.Errorf("1-shard routing: %d requests, %d fragments", out.Requests, out.Fragments)
			}
		})
	}
}

// TestReplayClientCountInvariance pins the determinism argument: the
// per-shard service order is fixed by the partition, so the client and
// batch topology must not change any simulated result.
func TestReplayClientCountInvariance(t *testing.T) {
	const space = 32 << 20
	base := ftl.DefaultConfig(space)
	base.Seed = 9
	reqs := mixedTrace(2, 3000, space, int64(base.PageSize), 0)

	run := func(clients, batch int) *Outcome {
		h := newTestHost(t, base, 4, Options{QueueDepth: 8})
		out, err := replay(h, reqs, ReplayOptions{Clients: clients, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(4, 64)
	for _, c := range []struct{ clients, batch int }{{9, 64}, {16, 64}, {5, 17}, {4, 1}} {
		got := run(c.clients, c.batch)
		if got.Digest != ref.Digest {
			t.Fatalf("clients=%d batch=%d: digest %#x, reference %#x", c.clients, c.batch, got.Digest, ref.Digest)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("clients=%d batch=%d: outcome diverges from reference", c.clients, c.batch)
		}
	}
}

// TestShardSaturationDigestStable is the shard-smoke gate: a race-enabled
// 4-shard saturation run (arrival 0, deep queues, concurrent clients) must
// produce the same merged digest run over run.
func TestShardSaturationDigestStable(t *testing.T) {
	const space = 32 << 20
	base := ftl.DefaultConfig(space)
	base.Seed = 4242
	reqs := mixedTrace(3, 6000, space, int64(base.PageSize), 0)

	run := func() *Outcome {
		h := newTestHost(t, base, 4, Options{QueueDepth: 8})
		out, err := replay(h, reqs, ReplayOptions{Clients: 8})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Digest != b.Digest {
		t.Fatalf("merged digest unstable across identical runs: %#x vs %#x", a.Digest, b.Digest)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("outcome unstable across identical runs")
	}
	if a.Digest == 0 {
		t.Fatal("suspicious zero digest")
	}
	for _, sr := range a.Shards {
		if sr.FS.Admitted == 0 {
			t.Fatalf("shard %d served nothing — sharding is not spreading load", sr.Shard)
		}
	}
	if a.M.Requests != a.Fragments {
		t.Fatalf("merged metrics count %d requests, %d fragments routed", a.M.Requests, a.Fragments)
	}
}

// TestReplayZeroRequests pins the empty-replay edge: well-defined zero
// stats, a stable digest, no divide-by-zero surprises.
func TestReplayZeroRequests(t *testing.T) {
	base := ftl.DefaultConfig(16 << 20)
	h := newTestHost(t, base, 2, Options{})
	out, err := replay(h, nil, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Requests != 0 || out.Fragments != 0 || out.M.Requests != 0 {
		t.Fatalf("empty replay reports %+v", out)
	}
	if got := out.M.AvgQueueDepth(); got != 0 {
		t.Fatalf("empty replay AvgQueueDepth = %v", got)
	}
	again, err := replay(h, nil, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != out.Digest {
		t.Fatal("empty replay digest unstable")
	}
}

// TestReplayRejectsBadTrace pins error routing through Partition.
func TestReplayRejectsBadTrace(t *testing.T) {
	base := ftl.DefaultConfig(16 << 20)
	h := newTestHost(t, base, 2, Options{})
	_, err := replay(h, []trace.Request{{Offset: -4096, Length: 4096, Op: trace.OpRead}}, ReplayOptions{})
	if err == nil {
		t.Fatal("ReplayStream accepted a malformed request")
	}
}

func TestClientsOfShard(t *testing.T) {
	for clients := 1; clients <= 12; clients++ {
		for shards := 1; shards <= 6; shards++ {
			total := 0
			for s := 0; s < shards; s++ {
				k := clientsOfShard(clients, shards, s)
				if k < 1 {
					t.Fatalf("clients=%d shards=%d: shard %d has no client", clients, shards, s)
				}
				total += k
			}
			want := clients
			if want < shards {
				want = shards
			}
			if total != want {
				t.Fatalf("clients=%d shards=%d: %d lanes dealt, want %d", clients, shards, total, want)
			}
		}
	}
}
