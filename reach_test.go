package hotcalls_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// maxUnreachable caps reachAllowlist.  Like maxOptionFields and `make
// loc`'s ceilings, it only goes down.
const maxUnreachable = 20

// reachAllowlist names the declarations no program reaches that stay
// anyway, each with the reason it stays.  An entry is a root of its own:
// what only it reaches is kept with it and needs no entry.  A key is the
// package's path in the module, a dot, then the declaration: Func, Type,
// Var, Const or Type.Method.
var reachAllowlist = map[string]string{
	"internal/core.Requester.CallOrFallback": starvation,

	"internal/apps/porting.App.ServeWithAEX": aexStorm,
	"internal/apps/porting.App.SetAEXRate":   aexStorm,
	"internal/sgx.Enclave.AEX":               aexStorm,
	"internal/sgx.Enclave.ResumeFromAEX":     aexStorm,

	"internal/sgx.Enclave.RDTSCP":          attacker,
	"internal/cache.Cache.Occupancy":       reference,
	"internal/epc.Manager.ResidentPages":   reference,
	"internal/mee.CostModel.FlushMetadata": accessor,

	"internal/sim.AEXInjector.Hits":       accessor,
	"internal/sgx.Platform.Enclave":       accessor,
	"internal/sgx.Enclave.ID":             accessor,
	"internal/sgx.Enclave.Initialized":    accessor,
	"internal/sgx.Enclave.NumTCS":         accessor,
	"internal/sdk.Runtime.StagedBytes":    accessor,
	"internal/core.CallPool.Stopped":      accessor,
	"internal/core.CallPool.Responders":   accessor,
	"internal/core.Requester.Index":       accessor,
	"internal/core.PayloadRing.Slabs":     accessor,
	"internal/core.PayloadRing.FreeSlabs": accessor,
}

// The reasons an unreached declaration stays.
const (
	aexStorm   = "AEX injection, ROADMAP item 7's AEX-storm stressor"
	attacker   = "attacker model: tests fault through it against code a program runs"
	reference  = "state the reference tests compare code a program runs against"
	accessor   = "accessor tests use to check code a program runs"
	starvation = "the paper's starvation fallback (Section 4.2), ROADMAP item 7's wedged-responder scenario"
)

// TestEveryDeclarationHasAProgramCaller type-checks the module's non-test
// packages (the repo benchmark's module included) and walks declaration
// references from what programs run: each main package's main, and the
// inits and package-level vars of every package a program links.  A
// method of a reached type that implements some interface counts as
// reached.  It fails on every declaration neither a program nor an
// allowlist entry reaches, and on every allowlist entry that a program or
// another entry reaches, or that names no declaration.
func TestEveryDeclarationHasAProgramCaller(t *testing.T) {
	start := time.Now()
	g := loadDecls(t, ".", "benchmarks")
	byKey := map[string]*decl{}
	var programs []*decl
	for _, d := range g {
		byKey[d.key] = d
		if d.root {
			programs = append(programs, d)
		}
	}
	var entries, problems []string
	for key := range reachAllowlist {
		entries = append(entries, key)
	}
	sort.Strings(entries)
	kept := append([]*decl(nil), programs...)
	for _, key := range entries {
		if d := byKey[key]; d == nil {
			problems = append(problems, key+": names no declaration")
		} else {
			kept = append(kept, d)
		}
	}
	run := reach(programs)
	for _, key := range entries {
		if d := byKey[key]; d != nil && run[d] {
			problems = append(problems, key+": a program reaches it")
		} else if d != nil && reach(slices.DeleteFunc(slices.Clone(kept), func(e *decl) bool { return e == d }))[d] {
			problems = append(problems, key+": another entry reaches it")
		}
	}
	keep := reach(kept)
	var missing []string
	lines := 0
	for _, d := range g {
		if !keep[d] {
			lines += d.lines
			missing = append(missing, fmt.Sprintf("%s (%s:%d, %d lines)", d.key, d.pos.Filename, d.pos.Line, d.lines))
		}
	}
	t.Logf("%d declarations, %d reached by programs, %d allowlisted; %s",
		len(g), len(run), len(entries), time.Since(start).Round(time.Millisecond))
	if len(entries) > maxUnreachable {
		t.Errorf("%d allowlist entries, ceiling %d", len(entries), maxUnreachable)
	}
	if len(problems) > 0 {
		t.Errorf("allowlist:\n\t%s", strings.Join(problems, "\n\t"))
	}
	if len(missing) > 0 {
		t.Errorf("%d declarations (%d lines) no program reaches:\n\t%s", len(missing), lines, strings.Join(missing, "\n\t"))
	}
}

// decl is one package-level declaration of the module, or one method.
type decl struct {
	key   string
	pos   token.Position
	lines int
	root  bool    // main, or an init or package-level var of a linked package
	edges []*decl // the declarations it uses; for a type, also its methods that implement an interface
}

// reach returns the declarations reachable from roots, roots included.
func reach(roots []*decl) map[*decl]bool {
	seen := map[*decl]bool{}
	queue := append([]*decl(nil), roots...)
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if seen[d] {
			continue
		}
		seen[d] = true
		queue = append(queue, d.edges...)
	}
	return seen
}

// listedPackage is the part of `go list -json` the scan reads.
type listedPackage struct {
	Dir, ImportPath, Name, Export string
	GoFiles                       []string
	Standard                      bool
}

// loadDecls lists the modules rooted at dirs with `go list -deps
// -export`, type-checks their packages from source in dependency order —
// reading every standard-library import from its export data — and
// returns their declarations with the references between them resolved.
func loadDecls(t *testing.T, dirs ...string) []*decl {
	pkgs := listPackages(t, dirs...)
	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	imp := &moduleImporter{
		checked: map[string]*types.Package{},
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		}),
	}
	var (
		order   []*decl
		byObj   = map[types.Object]*decl{}
		bodies  = map[*decl]ast.Node{}
		named   = map[*decl]*types.Named{}
		groups  [][]*decl // const groups that use iota or repeat an expression
		infos   []*types.Info
		mains   []*types.Package
		inLinks = map[*decl]string{} // a root's package path
	)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	add := func(obj types.Object, key string, doc *ast.CommentGroup, node ast.Node) *decl {
		from := node.Pos()
		if doc != nil {
			from = doc.Pos()
		}
		pos := fset.Position(from)
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
		d := &decl{key: key, pos: pos, lines: fset.Position(node.End()).Line - pos.Line + 1}
		if obj != nil {
			byObj[obj] = d
		}
		bodies[d] = node
		order = append(order, d)
		return d
	}
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		tp, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		imp.checked[p.ImportPath] = tp
		infos = append(infos, info)
		if p.Name == "main" {
			mains = append(mains, tp)
		}
		rel, _ := filepath.Rel(wd, p.Dir)
		rel = filepath.ToSlash(rel)
		for _, f := range files {
			for _, fd := range f.Decls {
				switch fd := fd.(type) {
				case *ast.FuncDecl:
					obj, key := info.Defs[fd.Name], rel+"."+fd.Name.Name
					if fd.Recv != nil {
						key = rel + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
					} else if fd.Name.Name == "init" {
						obj = nil // every init shares the name; none is referenced
					}
					d := add(obj, key, fd.Doc, fd)
					if fd.Recv == nil && (fd.Name.Name == "init" || p.Name == "main" && fd.Name.Name == "main") {
						inLinks[d] = p.ImportPath
					}
				case *ast.GenDecl:
					doc := fd.Doc
					var group []*decl
					for _, spec := range fd.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if fd.Lparen.IsValid() {
								doc = spec.Doc
							}
							obj := info.Defs[spec.Name]
							d := add(obj, rel+"."+spec.Name.Name, doc, spec)
							if n, ok := obj.Type().(*types.Named); ok {
								named[d] = n
							}
						case *ast.ValueSpec:
							if fd.Lparen.IsValid() {
								doc = spec.Doc
							}
							for _, name := range spec.Names {
								obj := info.Defs[name]
								if name.Name == "_" {
									obj = nil
								}
								d := add(obj, rel+"."+name.Name, doc, spec)
								if fd.Tok == token.VAR || name.Name == "_" {
									inLinks[d] = p.ImportPath
								}
								group = append(group, d)
							}
						}
					}
					if fd.Tok == token.CONST && implicit(fd) {
						groups = append(groups, group)
					}
				}
			}
		}
	}
	// A package is linked when some program imports it, directly or not.
	linked := map[string]bool{}
	var link func(*types.Package)
	link = func(p *types.Package) {
		if !linked[p.Path()] {
			linked[p.Path()] = true
			for _, q := range p.Imports() {
				link(q)
			}
		}
	}
	for _, p := range mains {
		link(p)
	}
	for d, path := range inLinks {
		d.root = linked[path]
	}
	uses := map[*ast.Ident]types.Object{}
	for _, info := range infos {
		for id, obj := range info.Uses {
			uses[id] = obj
		}
	}
	for _, d := range order {
		ast.Inspect(bodies[d], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && uses[id] != nil {
				if e := byObj[origin(uses[id])]; e != nil {
					d.edges = append(d.edges, e)
				}
			}
			return true
		})
	}
	// A const of such a group fixes its siblings' values: the group is
	// reached as one.
	for _, group := range groups {
		for _, d := range group {
			d.edges = append(d.edges, group...)
		}
	}
	ifaces := interfacesByMethod(imp, infos)
	for d, n := range named {
		if _, isIface := n.Underlying().(*types.Interface); isIface || n.TypeParams().Len() > 0 {
			continue
		}
		for _, typ := range []types.Type{n, types.NewPointer(n)} {
			ms := types.NewMethodSet(typ)
			for i := 0; i < ms.Len(); i++ {
				m := byObj[origin(ms.At(i).Obj())]
				if m == nil {
					continue
				}
				for _, iface := range ifaces[ms.At(i).Obj().Name()] {
					if types.Implements(typ, iface) {
						d.edges = append(d.edges, m)
						break
					}
				}
			}
		}
	}
	return order
}

// listPackages lists the non-test packages of the modules rooted at dirs
// and everything they import, dependencies first, each once, with the
// path of its export data.
func listPackages(t *testing.T, dirs ...string) []listedPackage {
	var pkgs []listedPackage
	seen := map[string]bool{}
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json=Dir,ImportPath,Name,Export,GoFiles,Standard", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for dec.More() {
			var p listedPackage
			if err := dec.Decode(&p); err != nil {
				t.Fatal(err)
			}
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	return pkgs
}

// moduleImporter hands out the module's packages as the scan checked
// them from source, so an object has one identity across packages, and
// reads every other package from its export data.
type moduleImporter struct {
	checked map[string]*types.Package
	gc      types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.gc.Import(path)
}

// interfacesByMethod indexes by method name error, every method-set
// interface the module's packages and their imports declare, and the
// module's interface literals.
func interfacesByMethod(imp *moduleImporter, infos []*types.Info) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(typ types.Type) {
		iface, ok := typ.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range imp.checked {
		walk(p)
	}
	for _, info := range infos {
		for _, tv := range info.Types {
			if _, isNamed := tv.Type.(*types.Named); tv.IsType() && !isNamed {
				add(tv.Type)
			}
		}
	}
	return byName
}

// implicit reports whether a const declaration numbers its constants by
// iota or repeats an expression, so that deleting one would change the
// value of another.
func implicit(fd *ast.GenDecl) bool {
	found := false
	for _, spec := range fd.Specs {
		if vs := spec.(*ast.ValueSpec); len(vs.Values) == 0 {
			found = true
		}
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// origin maps an instantiated generic function or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvName is the type name in a method's receiver or an embedded
// field, without its package qualifier.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}
