package porting_test

// The consumer table: every family the registry's Prometheus exposition
// (hotbench -metrics) carries, on either clock, names the reader that
// consumes it, and that reader ends outside observability.  A new signal
// declares its reader here, or TestEverySignalHasAReader fails naming it.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
	"hotcalls/internal/sim"
	"hotcalls/internal/telemetry"
)

// clock names the traffic that writes a family: a fabric port whose pool
// is wired with core.CallPool.SetTelemetry (wall-clock), a simulated
// porting.App wired with SetTelemetry (simulated cycles), or both.
type clock int

const (
	fabricClock clock = 1 << iota
	simClock
	bothClocks = fabricClock | simClock
)

func (c clock) String() string {
	return map[clock]string{fabricClock: "fabric", simClock: "simulated", bothClocks: "both"}[c]
}

// signalRow is one family's row.  reader is code:<pkg.Ident> (or
// <pkg.Type.Method>) in a package outside observability,
// doc:<file>#<heading> or test:<TestName>.  A driven row (idle empty)
// must read nonzero after exactly the fixtures its clock names; an idle
// row names what would move it and must read zero under both fixtures'
// healthy traffic.
type signalRow struct {
	reader string
	clock  clock
	idle   string
}

func driven(reader string, c clock) signalRow { return signalRow{reader: reader, clock: c} }

func idle(reader string, c clock, movesWhen string) signalRow {
	return signalRow{reader: reader, clock: c, idle: movesWhen}
}

// signalTable is the consumer table, keyed by family name.  A generic
// exposition (hotbench -metrics, a struct serialised whole to JSON) is not
// a reader.
var signalTable = map[string]signalRow{
	// Invariants: exactly-once accounting (every call is a responder's
	// execute or the requester's own inline run) and refusal counts.
	telemetry.MetricHotCallInline:   driven("test:TestPoolTelemetryExports", fabricClock),
	telemetry.MetricHotCallRejected: idle("test:TestSecurityDescriptorManipulation", fabricClock, "a scatter-gather descriptor points outside the posting requester's ring"),

	// The wake policy's kicks.
	telemetry.MetricResponderKicks: driven("doc:DESIGN.md#9. Scaling HotCalls (the fabric)", fabricClock),

	// Simulator instruction counts.
	telemetry.MetricEcalls: driven("test:TestTelemetrySGXMode", simClock),
	telemetry.MetricOcalls: driven("test:TestTelemetrySGXMode", simClock),
	telemetry.MetricEEnter: driven("test:TestTelemetrySGXMode", simClock),
	telemetry.MetricEExit:  driven("test:TestTelemetrySGXMode", simClock),
	telemetry.MetricResume: driven("test:TestTelemetrySGXMode", simClock),
	telemetry.MetricAEX:    idle("test:TestAEXAndResume", simClock, "a simulated enclave takes an asynchronous exit (sgx.Enclave.AEX)"),
}

// testReaders are the families a test alone may read: exactly-once
// accounting, refusal counts and simulator instruction counts — the
// invariants a test pins and no operator acts on.
var testReaders = map[string]bool{
	telemetry.MetricHotCallInline: true, telemetry.MetricHotCallRejected: true,
	telemetry.MetricEcalls: true, telemetry.MetricOcalls: true,
	telemetry.MetricEEnter: true, telemetry.MetricEExit: true, telemetry.MetricResume: true, telemetry.MetricAEX: true,
}

// armedPort is one fabric with a registry on its pool, after traffic.
type armedPort struct {
	f   *porting.Fabric
	reg *telemetry.Registry
}

// armPort boots a port on two connections, attaches a registry to its
// pool, and drives traffic on both at once.
func armPort(t *testing.T, port fabricPort) *armedPort {
	t.Helper()
	f, start, drive := port.boot(2, kitPoolOpts())
	reg := telemetry.New()
	f.Pool().SetTelemetry(reg)
	t.Cleanup(f.Stop)
	start()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for conn := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[conn] = drive(conn)
		}()
	}
	wg.Wait()
	for conn, err := range errs {
		if err != nil {
			t.Fatalf("conn %d: %v", conn, err)
		}
	}
	return &armedPort{f: f, reg: reg}
}

// armEcho is the consumer table's fast closed loop: a one-connection
// fabric whose handler returns its argument, wired like the ports.  Its
// calls come back to back, faster than a wake costs on any build, the
// race detector's included, so it drives what the ports' handler-paced
// loops may not: inline runs and a kick (the requester finds the
// responder parked, runs its calls itself and kicks within a few dozen).
func armEcho(t *testing.T) *armedPort {
	t.Helper()
	f := porting.NewFabric(1,
		[]core.PoolFunc{func(_ int, d uint64) uint64 { return d }}, kitPoolOpts())
	reg := telemetry.New()
	f.Pool().SetTelemetry(reg)
	t.Cleanup(f.Stop)
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
	kicks := reg.Counter(telemetry.MetricResponderKicks)
	for d := uint64(0); kicks.Load() == 0; d++ {
		if time.Now().After(deadline) {
			t.Fatalf("no kick after %d back-to-back calls", d)
		}
		if ret, err := r.Call(0, d); err != nil || ret != d {
			t.Fatalf("Call(%d) = (%d, %v)", d, ret, err)
		}
	}
	return &armedPort{f: &f, reg: reg}
}

// metrics returns the fabric registry's Prometheus exposition.
func (a *armedPort) metrics(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	if err := a.reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
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
// wired with SetTelemetry — the simulated servers' one wiring — and
// returns that registry's Prometheus exposition.
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
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestEverySignalHasAReader holds both clocks to the consumer table — the
// three fabric ports and the echo fabric with a registry on their pools,
// and simulated memcached wired with SetTelemetry: every family the
// registry's exposition emits has a row and every row is emitted; every
// reader resolves, a code reader outside the observability packages
// (`make loc`'s OBSERVABILITY), so no chain ends inside observability;
// and driven rows move under exactly the traffic their clock names and
// idle rows stay at zero.
func TestEverySignalHasAReader(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	src := parseSources(t, root)
	if err := src.resolve(telemetry.MetricEcalls, "code:telemetry.Registry.WritePrometheus"); err == nil {
		t.Error("a code reader inside an observability package resolved")
	}

	moved := map[clock]map[string]bool{fabricClock: {}, simClock: {}}
	emitted := map[string]bool{}
	fabrics := []*armedPort{armEcho(t)}
	for _, port := range fabricPorts {
		fabrics = append(fabrics, armPort(t, port))
	}
	for _, a := range fabrics {
		for name, nonzero := range exposedFamilies(a.metrics(t)) {
			emitted[name] = true
			moved[fabricClock][name] = moved[fabricClock][name] || nonzero
		}
	}
	for name, nonzero := range exposedFamilies(simulatedFixture(t)) {
		emitted[name] = true
		moved[simClock][name] = nonzero
	}

	for _, name := range sortedKeys(emitted) {
		if _, ok := signalTable[name]; !ok {
			t.Errorf("exposition family %s has no row naming its reader", name)
		}
	}
	for _, name := range sortedKeys(signalTable) {
		row := signalTable[name]
		if !emitted[name] {
			t.Errorf("row %s: neither clock's exposition emits it", name)
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
}

// sources indexes the module's Go declarations for reader resolution:
// every package's top-level identifiers and methods (code:), every test
// function's body (test:), the telemetry constant naming each family, and
// the observability packages `make loc` counts, where no code reader may
// sit.
type sources struct {
	root          string
	decls         map[string]map[string]bool // package name -> Ident or Type.Method
	tests         map[string][]string        // test name -> body source, per package defining it
	consts        map[string]string          // family -> telemetry constant name
	observability map[string]bool            // package name -> counted as observability
}

func parseSources(t *testing.T, root string) *sources {
	t.Helper()
	s := &sources{root: root, decls: map[string]map[string]bool{}, tests: map[string][]string{}, consts: map[string]string{},
		observability: map[string]bool{}}
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^OBSERVABILITY = (.+)$`).FindSubmatch(makefile)
	if m == nil {
		t.Fatal("Makefile sets no OBSERVABILITY list")
	}
	for _, pkg := range strings.Fields(string(m[1])) {
		s.observability[pkg] = true
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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

// resolve checks one row's reader.  A code reader must be a declaration
// of a package outside observability; a doc reader a heading of its file
// whose section names the family; a test reader a test whose body names
// the family, by its telemetry constant or literally.
func (s *sources) resolve(family, reader string) error {
	kind, ref, ok := strings.Cut(reader, ":")
	if !ok {
		return fmt.Errorf("not kind:reference")
	}
	switch kind {
	case "code":
		pkg, ident, _ := strings.Cut(ref, ".")
		if s.observability[pkg] {
			return fmt.Errorf("package %s is observability: the chain must end outside it", pkg)
		}
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
