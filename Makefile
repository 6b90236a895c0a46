GO ?= go

.PHONY: check vet build build-cross loc test test-race test-repeat test-poison bench-selftest bench-sim bench-pairs bench-zerocopy experiments profile incident-demo epc-demo

# check is the CI entrypoint: vet, build (natively and for the
# architectures without an assembly spin hint), hold the line counts under
# their ceilings, race-test the concurrency-heavy packages, repeat the
# claim-protocol tests, poison the marshalling scratch under every suite
# that stages calls, then the full suite.
check: vet build build-cross loc test-race test-repeat test-poison test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# build-cross compiles for arm64 and riscv64, which take the pure-Go
# fallback of the completion wait's PAUSE stub (internal/core/relax_*.go):
# a build tag that leaves an architecture without cpuRelax fails here.
build-cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=riscv64 $(GO) build ./...

# loc prints the non-test Go line counts ROADMAP's north star is stated
# in — the fabric against the apps, the observability packages and the
# experiment harness — each counted the one way acceptance lines count,
# and fails when observability or the total is over its ceiling: the
# ratio the north star names only ratchets down.
LOC = find $(1) -name '*.go' ! -name '*_test.go' -not -path './benchmarks/*' -not -path './.bench_build/*' | xargs cat | wc -l
OBSERVABILITY = telemetry dist flight incident monitor profile epcstat
OBSERVABILITY_CEILING = 5724
TOTAL_CEILING = 19450
loc:
	@obs=$$($(call LOC,$(addprefix ./internal/,$(OBSERVABILITY)))); total=$$($(call LOC,.)); \
	echo "fabric (internal/core)  $$($(call LOC,./internal/core))"; \
	echo "apps (internal/apps)    $$($(call LOC,./internal/apps))"; \
	echo "observability           $$obs (ceiling $(OBSERVABILITY_CEILING))"; \
	echo "internal/bench          $$($(call LOC,./internal/bench))"; \
	echo "total                   $$total (ceiling $(TOTAL_CEILING))"; \
	[ $$obs -le $(OBSERVABILITY_CEILING) ] && [ $$total -le $(TOTAL_CEILING) ]

test:
	$(GO) test ./...

# The HotCall protocol, the telemetry registry, the health monitor, the
# flight recorder, the incident capturer, the EPC paging manager and its
# observatory, and the fabric-routed ports with the kit that wires their
# observers (internal/apps/porting) are the packages with real
# cross-goroutine traffic; run them under the race detector.
test-race:
	$(GO) test -race ./internal/core/... ./internal/telemetry/... ./internal/monitor/... ./internal/flight/... ./internal/incident/... ./internal/epc/... ./internal/epcstat/... ./internal/apps/porting/... ./internal/apps/memcached/... ./internal/apps/lighttpd/... ./internal/apps/openvpn/...

# test-repeat reruns the tests that pin exactly-once execution — the core
# test that parks a claimed window under a second responder's scan, the
# openvpn port whose in-place handler turns a double execution into a
# failed MAC, the completion wait's echo under four requesters per P,
# requesters racing broadcast-woken responders for their own posted runs,
# four requesters taking turns at the single-slot face's lock, and four
# memcached connections whose GETs must each return one whole value some
# SET wrote while two responders overwrite items in place —
# twenty times at one and two Ps, so a protocol regression cannot pass on
# scheduler luck.
test-repeat:
	$(GO) test -count=20 -cpu 1,2 -run 'TestPoolTunnelConcurrentConnections|TestPoolBatchedClaimExactlyOnce|TestPoolWaitOversubscribedExactlyOnce|TestPoolParkedHelpExactlyOnce|TestHotCallConcurrentRequesters|TestPoolStoreConcurrentWholeValues' ./internal/core ./internal/apps/openvpn ./internal/apps/memcached

# test-poison reruns the suites whose handlers see staged parameters with
# the sdkpoison build tag: the SDK runtime fills staging scratch with 0xDB
# the moment a call finishes, so a handler that kept a staged slice past
# its return (the bytes are reused by the next call) fails its own checks.
test-poison:
	$(GO) test -tags sdkpoison ./internal/sdk/... ./internal/core/... ./internal/apps/...

# bench-sim prices the simulated platform in host time — what every
# experiment, the fidelity report and the repo benchmark's sim_apps
# workload pay.  In order: one request per app and interface (ns, B,
# allocations; the ceilings are pinned by TestSimRequestAllocs and
# TestSimBootFootprint in the same package); sim_apps' own unit, six
# freshly booted cells x 0.05 simulated s, as simulated requests per host
# second — build it with `go test -c` in a parent clone and alternate the
# two binaries to pair a claim without touching benchmarks/; and the
# model operations under every memory access, by outcome: one cache access,
# one 64-line streaming run, one EPC page-run.
bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkSimRequest' -benchtime 20000x -benchmem -count 3 ./internal/apps/porting/
	$(GO) test -run '^$$' -bench 'BenchmarkSimSweep' -benchtime 10x -count 3 ./internal/apps/porting/
	$(GO) test -run '^$$' -bench 'BenchmarkAccess|BenchmarkSweep' -benchtime 2000000x -count 3 ./internal/cache/
	$(GO) test -run '^$$' -bench 'BenchmarkTouchRunAs' -benchtime 2000000x -count 3 ./internal/epc/

# bench-selftest runs the repo benchmark's own tests (its module is
# outside the root module, so `go test ./...` does not reach them).
bench-selftest:
	cd benchmarks && $(GO) test ./...

# bench-pairs runs the per-layer wall-clock view: go test -bench pairs
# whose two sides differ in one thing.  They are reported, not gated —
# host time on a shared box wanders more than most of these differences,
# and a hand-set band around such a number neither stays green nor means
# anything.  What is gated in wall-clock time is the repo benchmark
# (benchmarks/, BENCHMARK.json): end to end, interleaved runs, bounds
# derived from the measured spread.  In order:
#   - the fabric against its single-slot configuration as a funnel (the
#     >=4x scaling pair), and bare vs with a live flight recorder at
#     1-in-256 sampling;
#   - the three ways a call meets the idle ladder (responder awake,
#     parked and run inline, parked and signalled);
#   - a one-shard fabric's call loop with and without a live monitor
#     sampler, against a parked-ticker control, and one sample's direct
#     cost;
#   - the memcached and lighttpd connections' synchronous and pipelined
#     request paths (kv_sync / kv_pipelined / web_paced by layer);
#   - the verified openvpn Stream window, time and allocations per
#     16 x 1400 B (vpn_stream by layer).
bench-pairs:
	$(GO) test -run '^$$' -bench 'BenchmarkPoolCall|BenchmarkSingleSlotFunnel' -benchtime 1s -count 5 ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkPoolWake' -benchtime 2000x -count 3 ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkCall(Telemetry|Monitored|TickerControl)|BenchmarkTick' -benchtime 2s -count 5 ./internal/monitor/
	$(GO) test -run '^$$' -bench 'BenchmarkPoolConnDo|BenchmarkPoolServerThroughput' -benchtime 1s -benchmem -count 3 ./internal/apps/memcached/
	$(GO) test -run '^$$' -bench 'BenchmarkPoolConnDo|BenchmarkPoolServerThroughput' -benchtime 1s -benchmem -count 3 ./internal/apps/lighttpd/
	$(GO) test -run '^$$' -bench 'BenchmarkStreamWindow' -benchtime 2s -count 3 ./internal/apps/openvpn/

# experiments runs every experiment once and writes the run's three
# renderings: EXPERIMENTS.md (every table and figure, measured vs paper),
# REPORT.md (the paper's headline numbers, CDFs and the fidelity table)
# and BENCH_hotcalls.json (every value, which go test ./internal/bench
# holds a fresh run to exactly).  Exits 1 (and fails CI) when a fidelity
# metric lands outside its two-sided band.  Byte-deterministic: a clean
# regeneration matches the committed files exactly, so it is also how a
# change that moves, adds or deletes an experiment value re-pins them.
# Incident bundles captured along the way land in incidents/ (CI uploads
# them when a step fails).
experiments:
	$(GO) run ./cmd/hotbench -docs . -incident-dir incidents

# The deterministic demos below write their raw series with -csv into
# one directory (CI uploads it).
DEMO_OUT = demo-out

# bench-zerocopy runs the simulated staged-vs-zero-copy crossing sweep:
# [in,out] marshalling against [zerocopy] ring pass-through on both
# edges, 2-32 KB, in simulated cycles.  The series lands in
# $(DEMO_OUT)/zerocopy_sweep.csv; the ratios are part of the exact gate.
bench-zerocopy:
	$(GO) run ./cmd/hotbench -run zerocopy -csv $(DEMO_OUT)

# incident-demo is the black-box postmortem walkthrough: wedge the
# fabric's responder, drive a fallback storm, let the monitor's rule
# fire, and print the captured bundle's rule, diagnosis and exact
# counts.  The bundle itself — capture time, causal timelines, the
# critical-path table — is spooled to incidents/ for inspection.
incident-demo:
	$(GO) run ./cmd/hotbench -run incident -incident-dir incidents

# epc-demo reproduces the paper's oversubscription cliff against the
# analytic paging model and renders the oversubscribed fault heatmap (the
# /debug/epc?format=svg view) to $(DEMO_OUT)/epc_heatmap.svg, beside the
# sweep's epc_sweep.csv.
epc-demo:
	$(GO) run ./cmd/hotbench -run epc -csv $(DEMO_OUT)

# profile runs the microbenchmarks under deep tracing and writes folded
# flame-graph stacks (flamegraph.pl, speedscope) to hotcalls.folded and
# the per-call-site and per-category cycle breakdowns to stdout.
profile:
	$(GO) run ./cmd/hotbench -run table1 -profile hotcalls.folded
