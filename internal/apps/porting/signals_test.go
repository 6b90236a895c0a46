package porting_test

// The consumer table: every family /metrics emits, on either clock, names
// the reader that consumes it, and every monitor rule names the families
// it reads and the test that makes it fire.  A new signal declares its
// reader here, or TestEverySignalHasAReader fails naming it.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hotcalls/internal/apps/memcached"
	"hotcalls/internal/apps/porting"
	"hotcalls/internal/core"
	"hotcalls/internal/epc"
	"hotcalls/internal/flight"
	"hotcalls/internal/incident"
	"hotcalls/internal/monitor"
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

// clock names the traffic that writes a family: a fabric port armed
// through Fabric.Arm (wall-clock), a simulated porting.App wired with
// SetTelemetry (simulated cycles), or both.
type clock int

const (
	fabricClock clock = 1 << iota
	simClock
	bothClocks = fabricClock | simClock
)

func (c clock) String() string {
	return map[clock]string{fabricClock: "fabric", simClock: "simulated", bothClocks: "both"}[c]
}

// signalRow is one family's row.  reader is rule:<Name()>,
// code:<pkg.Ident> (or <pkg.Type.Method>), doc:<file>#<heading> or
// test:<TestName>.  A driven row (idle empty) must read nonzero after
// exactly the fixtures its clock names; an idle row names what would move
// it and must read zero under both fixtures' healthy traffic.
type signalRow struct {
	reader string
	clock  clock
	idle   string
}

func driven(reader string, c clock) signalRow { return signalRow{reader: reader, clock: c} }

func idle(reader string, c clock, movesWhen string) signalRow {
	return signalRow{reader: reader, clock: c, idle: movesWhen}
}

// signalTable is the consumer table's family half, keyed by family name.
// A generic exposition (/metrics, hotbench -metrics, a struct serialised
// whole to JSON) is not a reader.
var signalTable = map[string]signalRow{
	// Submissions and the Section 4.2 starvation path.  The simulated
	// channel counts per-direction crossings instead of requests; the
	// storm rule takes whichever stream moved as its denominator.
	telemetry.MetricHotCallRequests:  driven("rule:fallback-storm", fabricClock),
	telemetry.MetricHotECalls:        driven("rule:fallback-storm", simClock),
	telemetry.MetricHotOCalls:        driven("rule:fallback-storm", simClock),
	telemetry.MetricHotCallTimeouts:  idle("rule:fallback-storm", fabricClock, "a requester's window stays full for its whole Timeout"),
	telemetry.MetricHotCallFallbacks: idle("rule:fallback-storm", fabricClock, "a timed-out call takes CallOrFallback's fallback"),

	// Invariants: exactly-once accounting (every call is a responder's
	// execute or the requester's own inline run) and refusal counts.
	telemetry.MetricHotCallInline:   driven("test:TestPoolTelemetryExports", fabricClock),
	telemetry.MetricHotCallRejected: idle("test:TestSecurityDescriptorManipulation", fabricClock, "a scatter-gather descriptor points outside the posting requester's ring"),

	// Responder economics.  Only the simulated core.Channel writes the
	// HotCall cycle histogram and the synchronisation cycles, so
	// latency-slo and spin-waste's cycle budget read the simulated clock.
	telemetry.MetricResponderPolls:     driven("rule:spin-waste", fabricClock),
	telemetry.MetricResponderExecutes:  driven("rule:spin-waste", fabricClock),
	telemetry.MetricSpinCycles:         driven("rule:spin-waste", simClock),
	telemetry.MetricHotCallCycles:      driven("rule:latency-slo", simClock),
	telemetry.MetricResponderKicks:     driven("doc:DESIGN.md#9. Scaling HotCalls (the fabric)", fabricClock),
	telemetry.MetricPoolResponders:     driven("rule:pool-saturation", fabricClock),
	telemetry.MetricPoolRespondersMax:  driven("rule:pool-saturation", fabricClock),
	telemetry.MetricPoolOccupancyMilli: driven("rule:pool-saturation", fabricClock),

	// Simulator instruction counts.
	telemetry.MetricEcalls: driven("test:TestTelemetrySGXMode", simClock),
	telemetry.MetricOcalls: driven("test:TestTelemetrySGXMode", simClock),
	telemetry.MetricEEnter: driven("test:TestTelemetrySGXMode", simClock),
	telemetry.MetricEExit:  driven("test:TestTelemetrySGXMode", simClock),
	telemetry.MetricResume: driven("test:TestTelemetrySGXMode", simClock),
	telemetry.MetricAEX:    idle("test:TestAEXAndResume", simClock, "a simulated enclave takes an asynchronous exit (sgx.Enclave.AEX)"),

	// Paging and the MEE.
	telemetry.MetricEPCFaults:     driven("rule:epc-thrash", bothClocks),
	telemetry.MetricEPCEvictions:  idle("rule:epc-thrash", bothClocks, "the working set outgrows the EPC"),
	telemetry.MetricEPCResident:   driven("rule:epc-thrash", bothClocks),
	telemetry.MetricEPCWritebacks: idle("test:TestObserverDirtyFlagAndWritebacks", fabricClock, "an evicted EPC page was written since it was loaded"),
	telemetry.MetricMEENodeHits:   driven("code:monitor.Monitor.RenderText", simClock),
	telemetry.MetricMEENodeMiss:   driven("code:monitor.Monitor.RenderText", simClock),

	// The flight recorder's per-callsite block: the /debug/flight table.
	"flight_callsite_arrivals_total":  driven("code:flight.Recorder.RenderText", fabricClock),
	"flight_callsite_service_p50_ns":  driven("code:flight.Recorder.RenderText", fabricClock),
	"flight_callsite_service_p99_ns":  driven("code:flight.Recorder.RenderText", fabricClock),
	"flight_callsite_latency_p50_ns":  driven("code:flight.Recorder.RenderText", fabricClock),
	"flight_callsite_latency_p99_ns":  driven("code:flight.Recorder.RenderText", fabricClock),
	"flight_callsite_timeouts_total":  idle("code:flight.Recorder.RenderText", fabricClock, "a call at the callsite times out"),
	"flight_callsite_fallbacks_total": idle("code:flight.Recorder.RenderText", fabricClock, "a timed-out call at the callsite falls back"),
	"flight_callsite_outliers_total":  idle("code:flight.Recorder.RenderText", fabricClock, "a call times out, or a sampled call outruns the cutoff the first digest sets (the fixtures digest only after their traffic)"),
}

// testReaders are the families a test alone may read: exactly-once
// accounting, refusal counts and simulator instruction counts — the
// invariants a test pins and no operator acts on.
var testReaders = map[string]bool{
	telemetry.MetricHotCallInline: true, telemetry.MetricHotCallRejected: true,
	telemetry.MetricEcalls: true, telemetry.MetricOcalls: true,
	telemetry.MetricEEnter: true, telemetry.MetricEExit: true, telemetry.MetricResume: true, telemetry.MetricAEX: true,
	telemetry.MetricEPCWritebacks: true,
}

// ruleRow is one monitor rule's row: the families it reads (nil for the
// EPC rules, which read the epcstat snapshot every sample carries), the
// clock whose traffic can make it eligible, and the test that makes it
// fire.
type ruleRow struct {
	reads []string
	clock clock
	fires string
}

var ruleTable = map[string]ruleRow{
	"fallback-storm": {[]string{telemetry.MetricHotCallRequests, telemetry.MetricHotECalls, telemetry.MetricHotOCalls,
		telemetry.MetricHotCallTimeouts, telemetry.MetricHotCallFallbacks}, bothClocks, "TestFallbackStormOnSleepingResponder"},
	// Occupancy half on the fabric, cycle-budget half on the simulated
	// clock only.
	"spin-waste": {[]string{telemetry.MetricResponderPolls, telemetry.MetricResponderExecutes, telemetry.MetricSpinCycles,
		telemetry.MetricHotCallRequests, telemetry.MetricHotECalls, telemetry.MetricHotOCalls}, bothClocks, "TestSpinWasteRule"},
	"latency-slo": {[]string{telemetry.MetricHotCallCycles}, simClock, "TestLatencySLOBurnRate"},
	"epc-thrash":  {[]string{telemetry.MetricEPCEvictions, telemetry.MetricEPCFaults, telemetry.MetricEPCResident}, bothClocks, "TestEPCThrashRule"},
	"pool-saturation": {[]string{telemetry.MetricPoolResponders, telemetry.MetricPoolRespondersMax, telemetry.MetricPoolOccupancyMilli,
		telemetry.MetricHotCallTimeouts}, fabricClock, "TestPoolSaturationRule"},
	"epc-oversubscription":    {nil, bothClocks, "TestEPCOversubscriptionRule"},
	"epc-victim-interference": {nil, bothClocks, "TestEPCVictimInterferenceRule"},
}

// armedPort is one fabric armed with every observer through the one Arm
// call, after traffic, serving its debug surface.  seen, when set, holds
// every registry family read nonzero while the traffic ran.
type armedPort struct {
	f    *porting.Fabric
	url  string
	seen map[string]bool
}

// armAll arms f with every observer, as a deployment would.
func armAll(f *porting.Fabric) *telemetry.Registry {
	reg := telemetry.New()
	f.Arm(porting.Observers{
		Registry:  reg,
		Flight:    flight.New(flight.Options{SampleEvery: 1}),
		EPCBytes:  256 * epc.PageSize,
		Monitor:   &monitor.Options{},
		Incidents: &incident.Options{},
	})
	return reg
}

// registryWatch snapshots a registry every 50 µs and remembers which
// families ever read nonzero: the pool's window occupancy gauge is set at
// control windows and may be back at zero when the traffic ends.
type registryWatch struct {
	reg  *telemetry.Registry
	mu   sync.Mutex
	seen map[string]bool
	stop chan struct{}
	done chan struct{}
}

func watchRegistry(reg *telemetry.Registry) *registryWatch {
	w := &registryWatch{reg: reg, seen: map[string]bool{}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for {
			select {
			case <-w.stop:
				return
			default:
			}
			w.observe()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	return w
}

func (w *registryWatch) observe() {
	snap := w.reg.Snapshot()
	w.mu.Lock()
	defer w.mu.Unlock()
	for name, v := range snap.Counters {
		w.seen[name] = w.seen[name] || v != 0
	}
	for name, v := range snap.Gauges {
		w.seen[name] = w.seen[name] || v != 0
	}
	for name, h := range snap.Histograms {
		w.seen[name] = w.seen[name] || h.Count != 0
	}
}

// moved reports whether the family has read nonzero yet.
func (w *registryWatch) moved(name string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seen[name]
}

// finish stops the watch and returns what it saw, with one last look.
func (w *registryWatch) finish() map[string]bool {
	close(w.stop)
	<-w.done
	w.observe()
	return w.seen
}

// serve ticks the monitor once more and starts the fabric's debug
// surface.
func serve(t *testing.T, f *porting.Fabric, seen map[string]bool) *armedPort {
	f.Monitor().Tick()
	srv := httptest.NewServer(f.DebugMux())
	t.Cleanup(srv.Close)
	return &armedPort{f: f, url: srv.URL, seen: seen}
}

// armPort boots a port on two connections, arms everything, and drives
// traffic on both at once.  Both connections post their first call before
// the responders start, so no responder is parked and the first claims
// are theirs.
func armPort(t *testing.T, port fabricPort) *armedPort {
	t.Helper()
	f, start, drive := port.boot(2, kitPoolOpts())
	reg := armAll(f)
	t.Cleanup(f.Stop)

	f.Monitor().Tick() // baseline primes the interval rules
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for conn := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[conn] = drive(conn)
		}()
	}
	requests := reg.Counter(telemetry.MetricHotCallRequests)
	for deadline := time.Now().Add(5 * time.Second); requests.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 first calls posted", requests.Load())
		}
	}
	start()
	wg.Wait()
	for conn, err := range errs {
		if err != nil {
			t.Fatalf("conn %d: %v", conn, err)
		}
	}
	return serve(t, f, nil)
}

// armEcho is the consumer table's fast closed loop: a one-connection
// fabric whose handler returns its argument, armed like the ports.  Its
// calls come back to back, faster than a wake costs on any build, the
// race detector's included, so it drives what the ports' handler-paced
// loops may not: inline runs and a kick (the requester finds the
// responder parked, runs its calls itself and kicks within a few dozen),
// and enough responder passes for control windows to set the pool's
// occupancy gauge, which a 50 µs registry watch catches.
func armEcho(t *testing.T) *armedPort {
	t.Helper()
	f := porting.NewFabric(porting.FabricSpec{Callsites: []string{"echo"}}, 1,
		[]core.PoolFunc{func(_ int, d uint64) uint64 { return d }}, kitPoolOpts())
	reg := armAll(&f)
	t.Cleanup(f.Stop)
	w := watchRegistry(reg)
	f.Start()
	pool := f.Pool()
	deadline := time.Now().Add(10 * time.Second)
	for pool.SleepingResponders() < pool.Responders() {
		if time.Now().After(deadline) {
			t.Fatal("the responder never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	r := pool.Requester()
	for d := uint64(0); !w.moved(telemetry.MetricResponderKicks) || !w.moved(telemetry.MetricPoolOccupancyMilli); d++ {
		if time.Now().After(deadline) {
			t.Fatalf("no kick or no occupancy reading after %d back-to-back calls", d)
		}
		if ret, err := r.CallV(core.VecCall{Data: d, Site: f.Callsite(0)}); err != nil || ret != d {
			t.Fatalf("CallV(%d) = (%d, %v)", d, ret, err)
		}
	}
	return serve(t, &f, w.finish())
}

// get fetches one path from the port's debug surface.
func (a *armedPort) get(t *testing.T, path string) (code int, contentType, body string) {
	t.Helper()
	return httpGet(t, a.url+path)
}

func httpGet(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// exposedFamilies reads an exposition into its declared families, each
// mapped to whether any of its samples is nonzero.
func exposedFamilies(exposition string) map[string]bool {
	out := map[string]bool{}
	family := ""
	for _, line := range strings.Split(exposition, "\n") {
		if decl, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, _, _ = strings.Cut(decl, " ")
			out[family] = out[family] || false
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 && line[i+1:] != "0" {
			out[family] = true
		}
	}
	return out
}

// simulatedFixture serves requests through simulated memcached in the SDK
// and HotCalls configurations, one registry holding the standard names
// wired with SetTelemetry, and returns the /metrics exposition that
// monitor.Mux serves over it — the simulated servers' one wiring.
func simulatedFixture(t *testing.T) string {
	t.Helper()
	reg := telemetry.New()
	telemetry.RegisterStandard(reg)
	for _, mode := range []porting.Mode{porting.SGX, porting.HotCalls} {
		s := memcached.NewServer(mode)
		s.SetTelemetry(reg)
		w := memcached.NewWorkload(s, 42)
		var clk sim.Clock
		for i := 0; i < 20; i++ {
			w.InjectNext()
			s.ServeOne(&clk)
			if _, err := w.DrainResponse(); err != nil {
				t.Fatal(err)
			}
		}
	}
	mon := monitor.New(reg, monitor.Options{})
	mon.Tick()
	srv := httptest.NewServer(monitor.Mux(reg, mon))
	defer srv.Close()
	_, _, body := httpGet(t, srv.URL+"/metrics")
	return body
}

// TestEverySignalHasAReader holds both clocks to the consumer table — the
// three fabric ports and the echo fabric armed with every observer, and
// simulated memcached wired with SetTelemetry: every family /metrics
// emits has a row and every row is emitted; every
// reader resolves; driven rows move under exactly the traffic their clock
// names and idle rows stay at zero; every monitor rule has a row whose
// families and clock agree with the family rows and a test that fires
// it; and every /debug/ index entry is in README's endpoint table.
func TestEverySignalHasAReader(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	src := parseSources(t, root)

	moved := map[clock]map[string]bool{fabricClock: {}, simClock: {}}
	emitted := map[string]bool{}
	endpoints := map[string]bool{}
	fabrics := []*armedPort{armEcho(t)}
	for _, port := range fabricPorts {
		fabrics = append(fabrics, armPort(t, port))
	}
	for _, a := range fabrics {
		_, _, metrics := a.get(t, "/metrics")
		for name, nonzero := range exposedFamilies(metrics) {
			emitted[name] = true
			moved[fabricClock][name] = moved[fabricClock][name] || nonzero || a.seen[name]
		}
		_, _, text := a.get(t, "/debug/?format=text")
		for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
			path, _, _ := strings.Cut(line, " ")
			endpoints[path] = true
		}
	}
	for name, nonzero := range exposedFamilies(simulatedFixture(t)) {
		emitted[name] = true
		moved[simClock][name] = nonzero
	}

	for _, name := range sortedKeys(emitted) {
		if _, ok := signalTable[name]; !ok {
			t.Errorf("/metrics family %s has no row naming its reader", name)
		}
	}
	for _, name := range sortedKeys(signalTable) {
		row := signalTable[name]
		if !emitted[name] {
			t.Errorf("row %s: neither clock's /metrics emits it", name)
			continue
		}
		if err := src.resolve(name, row.reader); err != nil {
			t.Errorf("row %s: reader %s: %v", name, row.reader, err)
		}
		if strings.HasPrefix(row.reader, "test:") && !testReaders[name] {
			t.Errorf("row %s: a test reads only invariants, and %s is not one", name, name)
		}
		var got clock
		for _, c := range []clock{fabricClock, simClock} {
			if moved[c][name] {
				got |= c
			}
		}
		switch {
		case row.idle != "" && got != 0:
			t.Errorf("row %s is idle (moves when %s) but read nonzero under healthy %s traffic", name, row.idle, got)
		case row.idle == "" && got != row.clock:
			t.Errorf("row %s is driven by %s traffic, but read nonzero under %q", name, row.clock, got)
		}
	}

	// Rules: one row per shipped rule, agreeing with the family rows.
	shipped := map[string]string{} // rule name -> its Go type
	for _, r := range append(monitor.DefaultRules(), monitor.EPCRules()...) {
		shipped[r.Name()] = strings.TrimPrefix(fmt.Sprintf("%T", r), "*monitor.")
		if _, ok := ruleTable[r.Name()]; !ok {
			t.Errorf("rule %s has no row", r.Name())
		}
	}
	for _, name := range sortedKeys(ruleTable) {
		rr := ruleTable[name]
		if _, ok := shipped[name]; !ok {
			t.Errorf("rule row %s names no shipped rule", name)
		}
		if err := src.resolveTest(rr.fires, strconv.Quote(name), shipped[name]); err != nil {
			t.Errorf("rule %s: firing test: %v", name, err)
		}
		var clocks clock
		for _, fam := range rr.reads {
			row, ok := signalTable[fam]
			if !ok {
				t.Errorf("rule %s reads %s, which has no row", name, fam)
			}
			clocks |= row.clock
		}
		if rr.reads != nil && clocks != rr.clock {
			t.Errorf("rule %s is fed by the %s clock, but its families are written by %s", name, rr.clock, clocks)
		}
	}
	for _, fam := range sortedKeys(signalTable) {
		if rule, ok := strings.CutPrefix(signalTable[fam].reader, "rule:"); ok {
			if rr, ok := ruleTable[rule]; ok && !contains(rr.reads, fam) {
				t.Errorf("row %s names rule %s as its reader, but the rule's row does not read it", fam, rule)
			}
		}
	}

	// Endpoints: every /debug/ index entry is in README's endpoint table.
	documented := readmeEndpoints(t, filepath.Join(root, "README.md"))
	for _, path := range sortedKeys(endpoints) {
		if !documented[path] {
			t.Errorf("/debug/ index entry %s is not in README's endpoint table", path)
		}
	}
}

// readmeEndpoints returns the paths README's endpoint table lists: the
// first backquoted cell of each row, query string dropped.
func readmeEndpoints(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if cell, ok := strings.CutPrefix(sc.Text(), "| `"); ok {
			p, _, _ := strings.Cut(cell, "`")
			p, _, _ = strings.Cut(p, "?")
			out[p] = true
		}
	}
	return out
}

// sources indexes the module's Go declarations for reader resolution:
// every package's top-level identifiers and methods (code:), every test
// function's body (test:), and the telemetry constant naming each family.
type sources struct {
	root   string
	decls  map[string]map[string]bool // package name -> Ident or Type.Method
	tests  map[string][]string        // test name -> body source, per package defining it
	consts map[string]string          // family -> telemetry constant name
}

func parseSources(t *testing.T, root string) *sources {
	t.Helper()
	s := &sources{root: root, decls: map[string]map[string]bool{}, tests: map[string][]string{}, consts: map[string]string{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "benchmarks" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, raw, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(path, "_test.go")
		pkg := f.Name.Name
		if s.decls[pkg] == nil {
			s.decls[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if isTest && d.Recv == nil && strings.HasPrefix(d.Name.Name, "Test") && d.Body != nil {
					body := raw[fset.Position(d.Body.Pos()).Offset:fset.Position(d.Body.End()).Offset]
					s.tests[d.Name.Name] = append(s.tests[d.Name.Name], string(body))
				}
				if isTest {
					continue
				}
				name := d.Name.Name
				if d.Recv != nil && len(d.Recv.List) == 1 {
					name = recvType(d.Recv.List[0].Type) + "." + name
				}
				s.decls[pkg][name] = true
			case *ast.GenDecl:
				if isTest {
					continue
				}
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						s.decls[pkg][sp.Name.Name] = true
					case *ast.ValueSpec:
						for i, n := range sp.Names {
							s.decls[pkg][n.Name] = true
							if pkg == "telemetry" && i < len(sp.Values) {
								if lit, ok := sp.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
									if v, err := strconv.Unquote(lit.Value); err == nil {
										s.consts[v] = n.Name
									}
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// resolve checks one row's reader.  A rule must be a row of ruleTable; a
// code reader a declaration of its package; a doc reader a heading of
// its file whose section names the family; a test reader a test whose
// body names the family, by its telemetry constant or literally.
func (s *sources) resolve(family, reader string) error {
	kind, ref, ok := strings.Cut(reader, ":")
	if !ok {
		return fmt.Errorf("not kind:reference")
	}
	switch kind {
	case "rule":
		if _, ok := ruleTable[ref]; !ok {
			return fmt.Errorf("no rule row %s", ref)
		}
		return nil
	case "code":
		pkg, ident, _ := strings.Cut(ref, ".")
		if !s.decls[pkg][ident] {
			return fmt.Errorf("package %s declares no %s", pkg, ident)
		}
		return nil
	case "doc":
		return s.resolveDoc(family, ref)
	case "test":
		want := strconv.Quote(family)
		if c, ok := s.consts[family]; ok {
			want = c
		}
		return s.resolveTest(ref, want)
	}
	return fmt.Errorf("unknown reader kind %q", kind)
}

// resolveTest checks that a test named name exists and that some
// definition of it mentions one of words.
func (s *sources) resolveTest(name string, words ...string) error {
	bodies, ok := s.tests[name]
	if !ok {
		return fmt.Errorf("no test %s", name)
	}
	for _, w := range words {
		re := regexp.MustCompile(`(^|[^A-Za-z0-9_])` + regexp.QuoteMeta(w) + `($|[^A-Za-z0-9_])`)
		for _, b := range bodies {
			if w != "" && re.MatchString(b) {
				return nil
			}
		}
	}
	return fmt.Errorf("%s mentions none of %q", name, words)
}

// resolveDoc checks that file#heading names a markdown heading and that
// its section, up to the next heading of the same or a higher level,
// mentions the family.
func (s *sources) resolveDoc(family, ref string) error {
	file, heading, ok := strings.Cut(ref, "#")
	if !ok {
		return fmt.Errorf("want <file>#<heading>")
	}
	raw, err := os.ReadFile(filepath.Join(s.root, file))
	if err != nil {
		return err
	}
	level := 0
	var section strings.Builder
	for _, line := range strings.Split(string(raw), "\n") {
		hashes := len(line) - len(strings.TrimLeft(line, "#"))
		isHeading := hashes > 0 && strings.HasPrefix(line[hashes:], " ")
		if level > 0 && isHeading && hashes <= level {
			break
		}
		if level > 0 {
			section.WriteString(line + "\n")
		} else if isHeading && strings.TrimSpace(line[hashes:]) == heading {
			level = hashes
		}
	}
	if level == 0 {
		return fmt.Errorf("%s has no heading %q", file, heading)
	}
	if !strings.Contains(section.String(), family) {
		return fmt.Errorf("section %q of %s does not mention %s", heading, file, family)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
