GO ?= go

.PHONY: check vet build build-cross loc test test-race test-repeat test-poison bench-selftest bench-sim bench-overhead monitor-overhead dist-overhead flight-overhead bench-scaling bench-zerocopy experiments report bench-json bench-regress profile incident-demo epc-demo whatif-demo

# check is the CI entrypoint: vet, build (natively and for the
# architectures without an assembly spin hint), race-test the
# concurrency-heavy packages, repeat the claim-protocol tests, poison the
# marshalling scratch under every suite that stages calls, then the full
# suite.
check: vet build build-cross test-race test-repeat test-poison test

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
# experiment harness — each counted the one way acceptance lines count.
LOC = find $(1) -name '*.go' ! -name '*_test.go' -not -path './benchmarks/*' -not -path './.bench_build/*' | xargs cat | wc -l
OBSERVABILITY = telemetry dist flight incident monitor profile epcstat whatif regress
loc:
	@echo "fabric (internal/core)  $$($(call LOC,./internal/core))"
	@echo "apps (internal/apps)    $$($(call LOC,./internal/apps))"
	@echo "observability           $$($(call LOC,$(addprefix ./internal/,$(OBSERVABILITY))))"
	@echo "internal/bench          $$($(call LOC,./internal/bench))"
	@echo "total                   $$($(call LOC,.))"

test:
	$(GO) test ./...

# The HotCall protocol, the telemetry registry, the health monitor, the
# distribution recorder, the EPC paging manager and its observatory, and
# the fabric-routed ports with the kit that wires their observers
# (internal/apps/porting) are the packages with real cross-goroutine
# traffic; run them under the race detector.
test-race:
	$(GO) test -race ./internal/core/... ./internal/telemetry/... ./internal/monitor/... ./internal/dist/... ./internal/flight/... ./internal/incident/... ./internal/epc/... ./internal/epcstat/... ./internal/whatif/... ./internal/apps/porting/... ./internal/apps/memcached/... ./internal/apps/lighttpd/... ./internal/apps/openvpn/...

# test-repeat reruns the tests that pin exactly-once execution — the core
# test that parks a claimed window under a second responder's scan, the
# openvpn port whose in-place handler turns a double execution into a
# failed MAC, the completion wait's echo under four requesters per P, and
# requesters racing broadcast-woken responders for their own posted runs
# — twenty times at one and two Ps, so a protocol regression cannot pass
# on scheduler luck.
test-repeat:
	$(GO) test -count=20 -cpu 1,2 -run 'TestPoolTunnelConcurrentConnections|TestPoolBatchedClaimExactlyOnce|TestPoolWaitOversubscribedExactlyOnce|TestPoolParkedHelpExactlyOnce' ./internal/core ./internal/apps/openvpn

# test-poison reruns the suites whose handlers see staged parameters with
# the sdkpoison build tag: the SDK runtime fills staging scratch with 0xDB
# the moment a call finishes, so a handler that kept a staged slice past
# its return (the bytes are reused by the next call) fails its own checks.
test-poison:
	$(GO) test -tags sdkpoison ./internal/sdk/... ./internal/core/... ./internal/apps/...

# bench-sim prices one simulated request per app and interface in host
# time and allocations — what every experiment, the fidelity report and
# the repo benchmark's sim_apps workload pay per request.  The ceilings
# are pinned by TestSimRequestAllocs in the same package.
bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkSimRequest' -benchtime 20000x -benchmem -count 3 ./internal/apps/porting/

# bench-selftest runs the repo benchmark's own tests (its module is
# outside the root module, so `go test ./...` does not reach them).
bench-selftest:
	cd benchmarks && $(GO) test ./...

# bench-overhead compares the uninstrumented HotCall path against one
# with a live registry attached (the <5% disabled-cost budget).
bench-overhead:
	$(GO) test -run '^$$' -bench 'BenchmarkCall' -benchtime 2s -count 5 ./internal/core/

experiments:
	$(GO) run ./cmd/hotbench -experiments-md EXPERIMENTS.md

# report regenerates the paper-fidelity report (REPORT.md + report.json):
# the full measurement plan through the high-resolution distribution
# recorder, diffed against the paper's published numbers.  Exits 1 (and
# fails CI) when any fidelity metric lands outside its tolerance band.
# Byte-deterministic: a clean regeneration matches the committed
# artifacts exactly.
report:
	$(GO) run ./cmd/hotreport -md REPORT.md -json report.json

# dist-overhead is the instrumented pair for the distribution recorder:
# the channel HotEcall path bare vs with a live dist.Set recording every
# call (<=1% budget, recorded in EXPERIMENTS.md).
dist-overhead:
	$(GO) test -run '^$$' -bench 'BenchmarkHotECallChannel' -benchtime 2s -count 5 ./internal/core/

# monitor-overhead is the instrumented pair for the continuous monitor:
# the same HotCall loop with and without a live 10ms sampler (<=1%
# budget, recorded in EXPERIMENTS.md).
monitor-overhead:
	$(GO) test -run '^$$' -bench 'BenchmarkCall(Telemetry|Monitored|TickerControl)|BenchmarkTick' -benchtime 2s -count 5 ./internal/monitor/

# flight-overhead is the instrumented pair for the flight recorder: the
# fabric call path bare vs with a live recorder at the default 1-in-256
# sampling (<=1% budget, recorded in EXPERIMENTS.md).  The hotbench
# flight experiment interleaves the pair in one process and gates the
# median throughput ratio under the flight/* band of bench-regress; the
# Go benchmark pair gives the separate-process ns/op view.
flight-overhead:
	$(GO) run ./cmd/hotbench -run flight
	$(GO) test -run '^$$' -bench 'BenchmarkPoolCall$$|BenchmarkPoolCallFlight' -benchtime 1s -count 5 ./internal/core/

# bench-scaling runs the fabric throughput-scaling curve (requesters x
# responders over the CallPool, plus the fabric-routed app paths), the
# Go benchmark pair behind the >=4x acceptance criterion, the three ways
# a call meets the idle ladder (BenchmarkPoolWake: responder awake,
# parked and run inline, parked and signalled — host costs, reported,
# not gated), the memcached connection's synchronous request path (ns
# and allocations per request under the repo benchmark's kv mix), and the
# lighttpd connection's synchronous path against an awake and against a
# parked responder and its pipelined path.  The same
# curve's ratios land in BENCH_hotcalls.json via bench-json and are
# gated by bench-regress under the scaling/* policy.
bench-scaling:
	$(GO) run ./cmd/hotbench -run scaling
	$(GO) test -run '^$$' -bench 'BenchmarkPoolCall|BenchmarkSingleSlotFunnel' -benchtime 1s -count 3 ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkPoolWake' -benchtime 2000x -count 3 ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkPoolConnDo' -benchtime 1s -count 3 ./internal/apps/memcached/
	$(GO) test -run '^$$' -bench 'BenchmarkPoolConnDo|BenchmarkPoolServerThroughput' -benchtime 1s -benchmem -count 3 ./internal/apps/lighttpd/

# bench-zerocopy runs the staged-vs-zero-copy comparison: the simulated
# 2-32 KB crossing-cost sweep ([in,out] marshalling vs [zerocopy] ring
# pass-through on both edges), the wall-clock fabric pairs (four-copy
# staging vs scatter-gather descriptors, interleaved same-run ratios),
# the openvpn port's iperf-like streaming driver (windowed vectored
# submit vs synchronous relay), and the verified Stream window's time
# and allocations per 16 x 1400 B.  The sweep series lands in
# zerocopy-sweep.csv (CI uploads it); the same ratios gate under the
# zerocopy/* bands of bench-regress.
bench-zerocopy:
	$(GO) run ./cmd/hotbench -zerocopy-sweep -zerocopy-csv zerocopy-sweep.csv
	$(GO) test -run '^$$' -bench 'BenchmarkStreamWindow' -benchtime 2s -count 3 ./internal/apps/openvpn/

# bench-json regenerates the machine-readable results artifact that perf
# changes diff against.
bench-json:
	$(GO) run ./cmd/hotbench -run all -bench-json BENCH_hotcalls.json

# bench-regress is the perf-regression gate: run the full suite into a
# scratch artifact and diff it against the committed baseline.  Exits
# non-zero (failing CI) when any metric regressed beyond tolerance.
# Incident bundles captured along the way land in incidents/ so a
# failing gate leaves a postmortem artifact behind (CI uploads it).
bench-regress:
	$(GO) run ./cmd/hotbench -run all -bench-json bench-candidate.json -incident-dir incidents >/dev/null
	$(GO) run ./cmd/benchdiff -baseline BENCH_hotcalls.json -candidate bench-candidate.json -md bench-regress.md

# incident-demo is the black-box postmortem walkthrough: wedge the
# fabric's responder, drive a fallback storm, let the monitor's rule
# fire, and print the captured bundle's critical-path table.  The
# bundle is also spooled to incidents/ for inspection.
incident-demo:
	$(GO) run ./cmd/hotbench -run incident -incident-dir incidents

# epc-demo reproduces the paper's oversubscription cliff against the
# analytic paging model, prices the pressure observatory's hot-path
# overhead, and renders the oversubscribed fault heatmap (the
# /debug/epc?format=svg view) to epc-heatmap.svg (CI uploads it).
epc-demo:
	$(GO) run ./cmd/hotbench -epc-sweep -epc-svg epc-heatmap.svg

# whatif-demo runs the causal what-if profiler validation (predicted vs
# applied virtual speedups per cost component), the shadow-router
# ordering-agreement sweep, the misroute-detection demo, and the
# estimator overhead pair; the full report artifact (the /debug/whatif
# JSON body) lands in whatif.json (CI uploads it).  The same values gate
# under the whatif/* band of bench-regress.
whatif-demo:
	$(GO) run ./cmd/hotbench -whatif -whatif-json whatif.json

# profile runs the microbenchmarks under deep tracing and emits folded
# flame-graph stacks plus a pprof protobuf.
profile:
	$(GO) run ./cmd/hotbench -run table1 -profile hotcalls.folded
