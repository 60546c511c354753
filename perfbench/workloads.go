package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs/live"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Settings every workload shares with ftlsim's defaults.
const (
	// programSeed is sim.Options.Seed. The program derives its
	// preconditioning seed from it, so it stays fixed: the --seed argument
	// reaches the program only through the generated trace.
	programSeed = 42
	// preconditionPasses ages each workload's footprint before replay.
	preconditionPasses = 1.5
	// warmupDivisor: the first 1/warmupDivisor of the trace is warm-up.
	warmupDivisor = 10
)

// spec is one benchmark workload: the trace it replays and the simulated
// system it replays it on. All workloads are closed loop.
type spec struct {
	name     string
	scheme   sim.Scheme
	profile  workload.Profile // address space, footprint and report name
	requests int              // trace length
	channels int
	dies     int
	// queueDepth is per shard on the sharded workload.
	queueDepth int
	shards     int
	clients    int
	live       bool // attach a live.Plane (no HTTP server)
	// generate writes n requests made from seed.
	generate func(seed int64, n int, emit func(trace.Request) error) error
}

var specs = []spec{
	{
		name:     "fin1-serial",
		scheme:   sim.SchemeTPFTL,
		profile:  workload.Financial1(),
		requests: 250_000,
		channels: 1, dies: 1, queueDepth: 1,
		generate: profileTrace(workload.Financial1()),
	},
	{
		name:     "randread-sharded",
		scheme:   sim.SchemeTPFTL,
		profile:  randReadProfile,
		requests: 1_000_000,
		channels: 4, dies: 2, queueDepth: 8,
		shards: 2, clients: 2, live: true,
		generate: randReadTrace,
	},
	{
		name:     "fstrim-dftl",
		scheme:   sim.SchemeDFTL,
		profile:  workload.FstrimHeavy(),
		requests: 400_000,
		channels: 1, dies: 1, queueDepth: 1,
		generate: profileTrace(workload.FstrimHeavy()),
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// warmup returns the number of leading requests served as warm-up.
func (s spec) warmup(n int) int { return n / warmupDivisor }

// options returns the sim.Run options that replay it on the workload's
// system, as ftlsim would with the same flags.
func (s spec) options(it trace.Iterator, n int) sim.Options {
	o := sim.Options{
		Scheme:           s.scheme,
		Profile:          s.profile,
		Seed:             programSeed,
		TraceStream:      it,
		Channels:         s.channels,
		Dies:             s.dies,
		QueueDepth:       s.queueDepth,
		Shards:           s.shards,
		Clients:          s.clients,
		Precondition:     preconditionPasses,
		ResetAfterWarmup: s.warmup(n),
	}
	if s.live {
		o.Telemetry = live.NewPlane(0, 0)
	}
	return o
}

// profileTrace generates requests from one of the calibrated Table 4
// surrogates.
func profileTrace(p workload.Profile) func(int64, int, func(trace.Request) error) error {
	return func(seed int64, n int, emit func(trace.Request) error) error {
		g, err := workload.NewGenerator(p, seed)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := emit(g.Next()); err != nil {
				return err
			}
		}
		return nil
	}
}

// randReadProfile describes randread-sharded's device: 1 GiB, of which the
// reads cover the first 75%. Only its size, footprint and name reach the
// program; the requests come from randReadTrace.
var randReadProfile = workload.Profile{
	Name:              "randread-4k",
	AddressSpace:      1 << 30,
	AvgRequestBytes:   4096,
	FootprintFraction: 0.75,
	MeanInterarrival:  1,
}

// randReadTrace generates page-aligned 4 KB reads, uniform over the
// profile's footprint, all arriving at time zero: each shard's closed loop
// admits the next read as soon as one of its queue slots frees.
func randReadTrace(seed int64, n int, emit func(trace.Request) error) error {
	const page = 4096
	pages := randReadProfile.FootprintBytes() / page
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		r := trace.Request{Offset: rng.Int63n(pages) * page, Length: page, Op: trace.OpRead}
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}

// keepTraces bounds the trace cache: generating a new trace first removes
// all but the most recently generated keepTraces-1 files.
const keepTraces = 6

// traceFile returns the binary trace of n requests of workload s made from
// seed, generating it into dir on first use. Later runs with the same
// workload, seed and length reuse the file.
func traceFile(dir string, s spec, seed int64, n int) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-n%d.bin", s.name, seed, n))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if err := pruneTraces(dir, keepTraces-1); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(dir, "gen-*.tmp")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name())
	w, err := trace.NewBinaryWriter(tmp, trace.BinaryHeader{PageBytes: trace.SummaryPageBytes})
	if err != nil {
		tmp.Close()
		return "", err
	}
	if err := s.generate(seed, n, w.WriteRequest); err != nil {
		tmp.Close()
		return "", fmt.Errorf("generating %s: %w", s.name, err)
	}
	if err := w.Finish(); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	return path, nil
}

// pruneTraces removes all but the keep newest trace files in dir.
func pruneTraces(dir string, keep int) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.bin"))
	if err != nil || len(paths) <= keep {
		return err
	}
	mtime := make(map[string]time.Time, len(paths))
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		mtime[p] = fi.ModTime()
	}
	sort.Slice(paths, func(i, j int) bool { return mtime[paths[i]].After(mtime[paths[j]]) })
	for _, p := range paths[keep:] {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	return nil
}
