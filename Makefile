GO ?= go
FUZZTIME ?= 5s

# The perf-trajectory micro-benchmarks: the hot paths every simulated
# reference crosses. bench-json pins -benchtime/-count so BENCH_umi.json
# baselines are comparable run to run on one machine.
BENCH_HOT = ^Benchmark(CacheAccess|AnalyzeProfile|PipelineEndToEnd|RIODispatch|WireEncode|WireEncodeV2|WireDecode|WireDecodeV2|ReplayStream|SampledAccess|OverheadAttribution)$$
BENCH_TIME ?= 300ms
BENCH_COUNT ?= 3

.PHONY: build test check bench bench-hot bench-json bench-compare fuzz perfbench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-merge gate: static vetting, the zero-allocation tests in
# a plain pass (they are !race — the detector's instrumentation skews
# allocation counts; TestRunQueueZeroAllocs is the reference queue's), the
# machine's hand-off to its model worker at one P and at more Ps than
# cores (the transparency and run-lifecycle tests under -cpu 1,4), then
# the full suite under the race detector (the reference queue, a replay's
# sequencer and harness fan-out are concurrent; -race is what validates
# their synchronization). The harness package runs every experiment
# driver; under the race detector's ~10x slowdown that outgrows go test's
# default 10m per-package timeout.
check:
	$(GO) vet ./...
	$(GO) test -run ZeroAllocs ./internal/cache ./internal/umi ./internal/vm ./internal/rio
	$(GO) test -cpu 1,4 -run 'TestDifferentialRandomPrograms|TestRunLifecycle' ./internal/rio
	$(GO) test -race -timeout 30m ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-hot runs the hot-path micro-benchmarks and prints go test's
# output; bench-json, bench-compare and CI's bench job all read this run.
BENCH_RUN = $(GO) test -run '^$$' -bench '$(BENCH_HOT)' -benchmem \
	-benchtime $(BENCH_TIME) -count $(BENCH_COUNT) .

bench-hot:
	$(BENCH_RUN)

# bench-json refreshes the committed perf baseline from the hot-path
# micro-benchmarks. Run it on a quiet machine when a PR moves ns/ref.
bench-json:
	$(BENCH_RUN) | $(GO) run ./cmd/benchjson -out BENCH_umi.json

# bench-compare measures the same suite and diffs it against the committed
# baseline, warning (never failing) past a 15% headline regression.
bench-compare:
	$(BENCH_RUN) | $(GO) run ./cmd/benchjson -compare BENCH_umi.json -warn-pct 15

# fuzz gives each fuzz target a short randomized run (FUZZTIME each; the
# corpus-replay cases also run under plain `make test`). Go allows one
# -fuzz target per invocation, hence one line per fuzzer.
fuzz:
	$(GO) test ./internal/trace -run FuzzReader -fuzz FuzzReader -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cache -run FuzzCacheConfig -fuzz FuzzCacheConfig -fuzztime $(FUZZTIME)
	$(GO) test ./internal/umi -run FuzzAnalyzerProfile -fuzz FuzzAnalyzerProfile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/umi -run FuzzDominantStride -fuzz FuzzDominantStride -fuzztime $(FUZZTIME)
	$(GO) test ./internal/umi -run FuzzWindowSummary -fuzz FuzzWindowSummary -fuzztime $(FUZZTIME)
	$(GO) test ./internal/umi -run FuzzSamplerConfig -fuzz FuzzSamplerConfig -fuzztime $(FUZZTIME)
	$(GO) test ./internal/umi -run FuzzReservoirProfile -fuzz FuzzReservoirProfile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/introspect -run FuzzSessionConfig -fuzz FuzzSessionConfig -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run FuzzWireDecode -fuzz FuzzWireDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rio -run FuzzRioTransparency -fuzz FuzzRioTransparency -fuzztime $(FUZZTIME)

# perfbench-check vets and tests the whole-run benchmark. It is its own
# module (perfbench/go.mod), so `go build ./...` and check never compile
# it; a vm or rio API change can break it unnoticed without this target.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
