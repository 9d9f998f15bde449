GO ?= go

.PHONY: all build fmt vet test race check depgate sweep-smoke crash-matrix oracle-smoke serve-smoke net-smoke kill9-smoke pipeline-smoke reshard-smoke group-smoke fuzz-smoke bench-oracle bench-sim bench-serve bench-store bench-net bench-compare profile perf-smoke bless-golden clean

all: check

build:
	$(GO) build ./...

# fmt fails listing every Go file gofmt would change (the benchmark's
# build directory is skipped).
fmt:
	@out="$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*'))"; \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the pre-commit gate: gofmt, build, vet, the deprecation gate, the
# full suite under the race detector, the pipelining matrix smoke
# (workers x depth through the serving oracle plus a crashing CLI run),
# and the resharding smoke. -short shrinks the sweep grid cells (see
# internal/sweep.testGrid) so the parallel engine is still exercised
# end-to-end without multi-minute cells.
check: fmt build vet depgate
	$(GO) test -short -race ./...
	$(MAKE) pipeline-smoke
	$(MAKE) reshard-smoke
	$(MAKE) group-smoke

# depgate refuses references to Deprecated: symbols outside their
# declaring file and *deprecated_test.go wrapper tests — the old
# NewStore/Serve/sim.Run surfaces stay wrappers, never call sites.
depgate:
	$(GO) run ./cmd/psoram-depgate

# sweep-smoke regenerates the acceptance grid (3 schemes x 2 workloads x
# 2 channel counts) through the CLI on 4 workers, printing the summary
# table and the achieved parallel speedup.
sweep-smoke: build
	$(GO) run ./cmd/psoram-sweep \
		-schemes Baseline,PS-ORAM,Naive-PS-ORAM \
		-workloads 401.bzip2,429.mcf \
		-channels 1,2 -accesses 400 -levels 10 -workers 4

# crash-matrix reproduces the crash-consistency verdict table
# (paper Table 5) through the parallel pool.
crash-matrix: build
	$(GO) run ./cmd/psoram-sweep -crash -workers 4

# oracle-smoke runs the differential oracle and the crash-linearizability
# torture harness over every scheme (see EXPERIMENTS.md, "Validating a
# refactor with psoram-oracle").
oracle-smoke: build
	$(GO) run ./cmd/psoram-oracle -crash

# serve-smoke proves the serving layer under the race detector: the
# differential oracle driven through a concurrent sharded pool, the
# kill-mid-batch crash torture, and a short CLI load run with -check.
serve-smoke: build
	$(GO) test -race -count=1 -run 'TestPoolOracle|TestPoolConcurrentOracle|TestCrashTorture' ./internal/serve
	$(GO) run -race ./cmd/psoram-serve -shards 4 -clients 4 -ops 200 -blocks 256 -levels 6 -check -crash-every 300

# net-smoke proves the TCP front-end under the race detector: the frame
# codec units, the N-connections-times-M-streams differential oracle
# over real sockets, slow-reader isolation, overload mapping, the
# cancellation edges with the goroutine-leak guard, the network kill -9
# torture (-short slice), and an in-process server + open-loop load run
# with every value diffed against the reference (-check).
net-smoke: build
	$(GO) test -race -short -count=1 ./internal/netserve
	$(GO) run -race ./cmd/psoram-server -self -shards 4 -blocks 256 -levels 6 \
		-conns 8 -rate 2000 -duration 2s -check

# kill9-smoke is the CI-budget slice of the crash-recovery torture: a
# few real SIGKILLs per scheme against the file-backed store plus the
# corruption table and the mutation check (a sabotaged persist barrier
# must be caught). The full 58-kill-point sweep runs in `make test` /
# `make race` (no -short).
kill9-smoke: build
	$(GO) test -race -short -count=1 -run 'TestKill9|TestCorruptionTable|TestFreshDirIsNoStore' ./internal/storage/filestore

# pipeline-smoke sweeps the intra-shard pipelining matrix — crypto
# workers {1,4} x pipeline depth {1,4} — through the serving-layer
# differential oracle, the Depth(1)+Workers(1) byte-equivalence check
# against the bare serial controller, and the read-combining suite,
# all under the race detector; then the kill -9 recovery torture
# (-short slice) and a crash-torture CLI run with the whole machinery
# armed.
pipeline-smoke: build
	$(GO) test -race -count=1 -run 'TestPipelineMatrixOracle|TestDepthOneByteIdenticalToSerial|TestReadCombining|TestWritesNeverCombine|TestPipelined' ./internal/serve
	$(GO) test -race -short -count=1 -run 'TestKill9' ./internal/storage/filestore
	$(GO) run -race ./cmd/psoram-serve -shards 2 -clients 4 -ops 150 -blocks 256 -levels 6 \
		-check -crash-every 250 -crypto-workers 4 -pipeline-depth 4

# reshard-smoke proves elastic resharding under the race detector: the
# oracle-validated split-then-merge under concurrent load, durable
# adoption across restart, backpressure/busy semantics, the same
# migration driven over TCP while clients hammer the pool, the SIGKILL
# -mid-migration torture (-short slice), and an oracle-checked CLI run
# that re-stripes 4 -> 6 shards halfway through.
reshard-smoke: build
	$(GO) test -race -count=1 -run 'TestReshard' ./internal/serve
	$(GO) test -race -short -count=1 -run 'TestNetReshard' ./internal/netserve
	$(GO) run -race ./cmd/psoram-serve -shards 4 -clients 4 -ops 300 -blocks 512 -levels 6 \
		-check -reshard 6

# group-smoke proves group-commit durability under the race detector:
# the GroupCommit(1) on-disk byte-equivalence gate, the grouped commit
# ticket/equivalence suite, the async-barrier epoch turnover and stray
# sweep tests, the group kill -9 torture (acks only from commit
# callbacks; -short slice) plus its mutation check, the serve-layer
# group tests, and an oracle-checked CLI run with group commit armed on
# a durable pool.
group-smoke: build
	$(GO) test -race -count=1 -run 'TestGroupCommit|TestAsync' ./internal/core ./internal/storage/filestore
	$(GO) test -race -short -count=1 -run 'TestKill9Group' ./internal/storage/filestore
	$(GO) test -race -count=1 -run 'TestPoolGroupCommit' ./internal/serve
	rm -rf /tmp/psoram-group-smoke-store
	$(GO) run -race ./cmd/psoram-serve -shards 2 -clients 4 -ops 150 -blocks 256 -levels 6 \
		-check -store /tmp/psoram-group-smoke-store -group-commit 8 -group-delay 2ms && \
		rm -rf /tmp/psoram-group-smoke-store

# fuzz-smoke gives each oracle fuzz target a short coverage-guided run
# (the CI budget; raise FUZZTIME locally for a deeper session).
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzOracleAccessSequence$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzStashEviction$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzFilestoreRecovery$$' -fuzztime $(FUZZTIME) ./internal/storage/filestore
	$(GO) test -run '^$$' -fuzz '^FuzzFrameCodec$$' -fuzztime $(FUZZTIME) ./internal/netserve

# bench-oracle measures the per-cell cost of oracle validation and pins
# it into BENCH_oracle.json (tracked; regenerate when the oracle or the
# sweep engine changes).
bench-oracle:
	$(GO) test -run '^$$' -bench BenchmarkOracleOverhead -benchmem -json ./internal/sweep > BENCH_oracle.json
	@grep -o '"Output":"[^"]*ns/op[^"]*' BENCH_oracle.json | sed 's/"Output":"//;s/\\t/  /g;s/\\n//'

# bench-sim measures steady-state cost per simulated access for the
# headline schemes and pins it into BENCH_sim.json (tracked; regenerate
# when sim/mem/oram hot paths change). Compare two checkouts with
# benchstat: see EXPERIMENTS.md, "Profiling the simulator".
bench-sim:
	$(GO) test -run '^$$' -bench BenchmarkSim -benchmem -benchtime=2s -json ./internal/sim > BENCH_sim.json
	@grep -o '"Output":"[^"]*ns/op[^"]*' BENCH_sim.json | sed 's/"Output":"//;s/\\t/  /g;s/\\n//'

# bench-serve measures end-to-end serving throughput across shard counts
# plus the bare functional store on the same tree shape (no pool — the
# gap is the serving layer's own overhead) and pins both into
# BENCH_serve.json (tracked; regenerate when the serving layer or the
# core access path changes). Compare against the pinned baseline with
# benchstat: see EXPERIMENTS.md, "Profiling the serving data path".
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkPoolThroughput|^BenchmarkStoreAccess$$' -benchmem -benchtime=1s -json ./internal/serve . > BENCH_serve.json
	@grep -o '"Output":"[^"]*ns/op[^"]*' BENCH_serve.json | sed 's/"Output":"//;s/\\t/  /g;s/\\n//'

# bench-store measures the per-access price of crash consistency: the
# durable file backend (chunk writes + fsyncs + version flip per access)
# against the in-memory BenchmarkStoreAccess on the identical tree
# shape, pinned into BENCH_store.json (tracked; regenerate when the
# filestore persist barrier or chunk layout changes). Numbers are
# storage-stack dependent — compare within one machine with benchstat.
bench-store:
	$(GO) test -run '^$$' -bench '^BenchmarkFileStoreAccess$$|^BenchmarkStoreAccess$$' -benchmem -benchtime=1s -json . > BENCH_store.json
	@grep -o '"Output":"[^"]*ns/op[^"]*' BENCH_store.json | sed 's/"Output":"//;s/\\t/  /g;s/\\n//'

# bench-net measures loopback serving capacity through the whole
# network stack — framing, TCP, pipelining, the sharded pool, real
# PS-ORAM accesses — from 64 concurrent connections, and pins ns/op
# plus the client-observed p50/p99 into BENCH_net.json (tracked;
# regenerate when the protocol, client, or serving layer changes).
# Loopback numbers are machine dependent — compare within one machine
# with benchstat.
bench-net:
	$(GO) test -run '^$$' -bench '^BenchmarkNetThroughput$$' -benchmem -benchtime=1s -json ./internal/netserve > BENCH_net.json
	@grep -o '"Output":"[^"]*ns/op[^"]*' BENCH_net.json | sed 's/"Output":"//;s/\\t/  /g;s/\\n//'

# bench-compare re-runs the serving benchmarks into a scratch file and
# diffs them against the tracked pin with the local comparer (benchstat
# is not assumed installed; psoram-benchcmp parses the -json pins and
# exits 1 on a >15% ns/op regression — above this machine's observed
# run-to-run noise). Compare any two pins directly with
# `go run ./cmd/psoram-benchcmp OLD.json NEW.json`.
BENCH_NEW ?= /tmp/BENCH_serve.new.json
BENCH_STORE_NEW ?= /tmp/BENCH_store.new.json
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkPoolThroughput|^BenchmarkStoreAccess$$' -benchmem -benchtime=1s -json ./internal/serve . > $(BENCH_NEW)
	$(GO) run ./cmd/psoram-benchcmp -threshold 15 BENCH_serve.json $(BENCH_NEW)
	$(GO) test -run '^$$' -bench '^BenchmarkFileStoreAccess$$|^BenchmarkStoreAccess$$' -benchmem -benchtime=1s -json . > $(BENCH_STORE_NEW)
	$(GO) run ./cmd/psoram-benchcmp -threshold 40 BENCH_store.json $(BENCH_STORE_NEW)

# profile captures CPU + heap pprof for a representative sweep via the
# psoram-sweep -profile flag; inspect with `go tool pprof profiles/cpu.pprof`.
PROFILE_DIR ?= profiles
profile: build
	$(GO) run ./cmd/psoram-sweep \
		-schemes Baseline,PS-ORAM,Naive-PS-ORAM -workloads 401.bzip2,429.mcf \
		-channels 1 -accesses 2000 -levels 14 -workers 1 -quiet \
		-profile $(PROFILE_DIR)

# perf-smoke is the CI perf job: the zero-allocation guards (simulator,
# core controller, and serving layer), the golden determinism
# regression, and one pass of the sim and serve benchmarks with
# -benchtime=1x (harness correctness, not timing).
perf-smoke:
	$(GO) test ./internal/sim -run 'TestSteadyStateZeroAllocs|TestGoldenDeterminismRegression' -v
	$(GO) test ./internal/core -run 'TestCoreSteadyStateAllocs|TestCorePooledSteadyStateAllocs|TestCoreFileStoreSteadyStateAllocs' -short -v
	$(GO) test ./internal/serve -run 'TestServeSteadyStateAllocs|TestServePipelinedSteadyStateAllocs|TestServeFileStoreSteadyStateAllocs' -short -v
	$(GO) test -run '^$$' -bench BenchmarkSim -benchtime=1x -benchmem ./internal/sim
	$(GO) test -run '^$$' -bench 'BenchmarkPoolThroughput|^BenchmarkStoreAccess$$|^BenchmarkFileStoreAccess$$' -benchtime=1x -benchmem ./internal/serve .

# bless-golden re-pins the golden metrics after a deliberate behaviour
# change. Justify the new numbers in the commit that re-blesses.
bless-golden:
	$(GO) test ./internal/sweep -run TestGoldenMetrics -update

clean:
	$(GO) clean ./...
