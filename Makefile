GO ?= go

.PHONY: build test race vet fmt-check lint lint-report lint-fix-audit sanitize fuzz bench bench-ci bench-smoke shard-smoke obs-smoke obs-live-smoke trim-smoke stream-smoke perfbench-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails, listing the files, when any Go file is not gofmt-clean.
fmt-check:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

race:
	$(GO) test -race ./...

# ftlint is the repo's own static-analysis suite (cmd/ftlint): ten analyzers
# covering global randomness, cache accounting outside the helpers, discarded
# flash-chip errors, magic geometry literals, hot-path allocation, observability
# hook discipline, non-exhaustive op switches, order-sensitive map iteration,
# package-level mutable state, and clock discipline. Driven through
# `go vet -vettool` so it covers _test.go files and every build unit.
#
# lint fails only on findings NOT in lint-baseline.json (the checked-in known
# debt). -baseline-stamp folds the baseline's content hash into the vet action
# cache key so editing the baseline invalidates cached unit results.
bin/ftlint: FORCE
	$(GO) build -o bin/ftlint ./cmd/ftlint

FORCE:

BASELINE := $(abspath lint-baseline.json)
baseline-stamp = $(firstword $(shell cat $(BASELINE) 2>/dev/null | cksum))

lint: bin/ftlint
	$(GO) vet -vettool=$(abspath bin/ftlint) \
		-baseline=$(BASELINE) -baseline-stamp=$(baseline-stamp) ./...

# Machine-readable reports for CI artifact upload: JSON (the full findings +
# analyzer catalog) and SARIF 2.1.0 (code-scanning UIs). Standalone mode, so
# new findings still exit 1 after writing the report.
lint-report: bin/ftlint
	./bin/ftlint -baseline $(BASELINE) -json -o bin/lint-report.json ./...
	./bin/ftlint -baseline $(BASELINE) -sarif -o bin/lint-report.sarif ./...

# Per-analyzer baseline debt scoreboard — the burn-down tracker.
lint-fix-audit: bin/ftlint
	./bin/ftlint -baseline $(BASELINE) -audit

# The ftlsan build runs the full invariant suite (chip bookkeeping, GTD and
# truth/persist consistency, translator structure) after every host
# operation. -short skips the paper-scale runs, whose 300k requests would
# make the O(pages) per-op checks explode.
sanitize:
	$(GO) test -tags ftlsan -short ./...

# Short fuzz pass over the crash-recovery property (seed corpus always runs
# under plain `go test`; this explores beyond it). Built with -tags ftlsan so
# every fuzz-discovered sequence also runs under the per-op invariant checks.
fuzz:
	$(GO) test -tags ftlsan ./internal/sim -run '^$$' -fuzz FuzzCrashRecovery -fuzztime 30s
	$(GO) test -tags ftlsan ./internal/sim -run '^$$' -fuzz FuzzCrashTrimFlush -fuzztime 30s

# ftlbench is the reproducible macro-benchmark harness (cmd/ftlbench): a
# fixed case matrix of full device simulations, reported as sim-ops per
# wall-second, ns/op, allocs/op, bytes/op and peak RSS. `make bench`
# regenerates the committed BENCH_7.json, embedding the previous report
# (BENCH_6.json, the pre-streaming build) as its baseline section;
# `make bench-ci` is the CI smoke: the quick subset of the matrix with a
# throughput floor, plus a shortened run of the streamed-replay case with its
# own ingest-inclusive floor, so a change that wrecks the zero-allocation hot
# path or the streaming decode fails the build instead of landing silently.
bin/ftlbench: FORCE
	$(GO) build -o bin/ftlbench ./cmd/ftlbench

bench: bin/ftlbench
	./bin/ftlbench -out BENCH_7.json -baseline BENCH_6.json -runs 3

bench-ci: bin/ftlbench
	./bin/ftlbench -smoke -runs 1 -minops 600000
	./bin/ftlbench -case stream-replay -stream-requests 2000000 -runs 1 -minops 4000000

# Observability smoke: a short traced multi-channel run must produce a
# schema-valid metrics JSONL stream and a balanced Chrome trace_event file
# (cmd/obsvalidate runs the same checks the internal/obs tests pin). Catches
# a drifting export schema or an unbalanced span before a human opens the
# artifacts in Perfetto.
bin/ftlsim: FORCE
	$(GO) build -o bin/ftlsim ./cmd/ftlsim

bin/obsvalidate: FORCE
	$(GO) build -o bin/obsvalidate ./cmd/obsvalidate

obs-smoke: bin/ftlsim bin/obsvalidate
	./bin/ftlsim -requests 20000 -channels 4 -dies 2 -qd 8 \
		-metrics-out /tmp/obs-smoke.jsonl -metrics-interval 2000 \
		-trace-out /tmp/obs-smoke.trace.json > /dev/null
	./bin/obsvalidate -metrics /tmp/obs-smoke.jsonl -trace /tmp/obs-smoke.trace.json
	rm -f /tmp/obs-smoke.jsonl /tmp/obs-smoke.trace.json

# Host-interface smoke: run the trim-heavy and fsync-heavy profiles end to
# end (generated workload → buffer → device → metrics), then verify the
# discard and flush crash contracts at random power-cut points. Catches a
# translator whose Discard/FlushDirty path regressed without waiting for
# the full test suite.
trim-smoke: bin/ftlsim
	./bin/ftlsim -workload fstrim-heavy -requests 20000 -scale 67108864 > /dev/null
	./bin/ftlsim -workload database-fsync -requests 20000 -scale 67108864 > /dev/null
	./bin/ftlsim -workload fstrim-heavy -requests 1200 -scale 16777216 -cuts 10 > /dev/null
	./bin/ftlsim -workload database-fsync -requests 1200 -scale 16777216 -cuts 10 > /dev/null

# Short queue-depth sweep over the parallel backend under the race detector:
# the serial golden must hold bit-for-bit, the 4-channel QD sweep must be
# monotone, and QD8 on 4 channels must beat 1 channel by ≥2×.
bench-smoke:
	$(GO) test -race ./internal/sim -run 'TestSerialGoldenCompatibility|TestSchedulerDeterminism|TestParallelSpeedup|TestQueueDepthSweepSmoke' -v

# Sharded-host smoke under the race detector: a 4-shard closed-loop
# saturation run (8 client goroutines, queue depth 8, back-to-back arrivals)
# must produce the identical merged digest — the per-shard order-sensitive
# event hashes folded across shards — on two consecutive runs. Catches any
# cross-shard state sharing or scheduling nondeterminism in internal/host.
shard-smoke:
	$(GO) test -race ./internal/host -run 'TestShardSaturationDigestStable|TestReplayClientCountInvariance' -count=1 -v

# Streaming-replay smoke: the binary trace engine must replay bit-for-bit
# identically to the eager slice path — the same stdout report on the serial
# device and the same merged digest through the 2-shard host — and the
# bounded-memory and equivalence property tests must pass. Catches a batching
# or routing change that breaks stream/eager equivalence before the goldens.
bin/tracegen: FORCE
	$(GO) build -o bin/tracegen ./cmd/tracegen

stream-smoke: bin/ftlsim bin/tracegen
	./bin/tracegen -workload Financial1 -requests 20000 -scale 67108864 -o /tmp/stream-smoke.csv
	./bin/tracegen convert -format native -i /tmp/stream-smoke.csv -o /tmp/stream-smoke.ftr 2> /dev/null
	./bin/ftlsim -trace /tmp/stream-smoke.csv -format native -space 67108864 -warmup 2000 \
		> /tmp/stream-smoke.eager.txt 2> /dev/null
	./bin/ftlsim -trace /tmp/stream-smoke.ftr -format binary -space 67108864 -warmup 2000 \
		> /tmp/stream-smoke.streamed.txt 2> /dev/null
	cmp /tmp/stream-smoke.eager.txt /tmp/stream-smoke.streamed.txt
	./bin/ftlsim -trace /tmp/stream-smoke.csv -format native -space 67108864 -warmup 2000 \
		-shards 2 -clients 4 -qd 8 > /tmp/stream-smoke.eager2.txt 2> /dev/null
	./bin/ftlsim -trace /tmp/stream-smoke.ftr -format binary -space 67108864 -warmup 2000 \
		-shards 2 -clients 4 -qd 8 > /tmp/stream-smoke.streamed2.txt 2> /dev/null
	cmp /tmp/stream-smoke.eager2.txt /tmp/stream-smoke.streamed2.txt
	$(GO) test ./internal/sim -run 'TestStreamedReplayMatchesEager|TestStreamBoundedMemory' -count=1
	rm -f /tmp/stream-smoke.csv /tmp/stream-smoke.ftr /tmp/stream-smoke.*.txt

# Live-telemetry smoke: a sharded streamed replay with the scrape server up
# (-telemetry-addr) is scraped twice in flight by obsvalidate — both
# expositions must parse as Prometheus text and the second must be monotonic
# over the first — then POST /quit ends the linger window, the flight-recorder
# dump must validate, and the run's stdout must be bit-for-bit identical to
# the same replay with telemetry off. Catches a scrape-format regression, a
# counter that moves backwards across warm-up, or any telemetry feedback into
# the simulation.
obs-live-smoke: bin/ftlsim bin/tracegen bin/obsvalidate
	./bin/tracegen -workload Financial1 -requests 20000 -scale 67108864 -o /tmp/obs-live.csv
	./bin/tracegen convert -format native -i /tmp/obs-live.csv -o /tmp/obs-live.ftr 2> /dev/null
	./bin/ftlsim -trace /tmp/obs-live.ftr -format binary -space 67108864 -warmup 2000 \
		-shards 2 -clients 4 -qd 8 > /tmp/obs-live.off.txt 2> /dev/null
	./bin/ftlsim -trace /tmp/obs-live.ftr -format binary -space 67108864 -warmup 2000 \
		-shards 2 -clients 4 -qd 8 -telemetry-addr 127.0.0.1:19610 \
		-telemetry-interval 100ms -telemetry-every 256 -telemetry-linger 30s \
		-recorder-out /tmp/obs-live.flight.txt > /tmp/obs-live.on.txt 2> /dev/null & \
	./bin/obsvalidate -scrape http://127.0.0.1:19610/metrics -o /tmp/obs-live.s1.prom && \
	./bin/obsvalidate -scrape http://127.0.0.1:19610/metrics -o /tmp/obs-live.s2.prom && \
	./bin/obsvalidate -prom /tmp/obs-live.s2.prom -prom-prev /tmp/obs-live.s1.prom && \
	./bin/obsvalidate -post http://127.0.0.1:19610/quit && \
	wait
	./bin/obsvalidate -recorder /tmp/obs-live.flight.txt
	cmp /tmp/obs-live.off.txt /tmp/obs-live.on.txt
	rm -f /tmp/obs-live.csv /tmp/obs-live.ftr /tmp/obs-live.*.txt /tmp/obs-live.*.prom

# The benchmark harness (perfbench/) is its own Go module that replaces repro
# with this checkout, so root `go test ./...` never compiles it. Vet and test
# it here, so a change that removes or reshapes an API it calls fails CI
# instead of breaking the benchmark. Both run offline.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

ci: fmt-check vet lint lint-report race sanitize bench-smoke shard-smoke stream-smoke bench-ci obs-smoke obs-live-smoke trim-smoke perfbench-check
