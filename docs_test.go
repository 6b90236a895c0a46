package hotcalls_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// checkedDocs are the documents whose quoted code TestDocsResolve holds
// to the tree.  PAPER.md is the source input, CHANGES.md is history, and
// benchmarks/README.md belongs to the repo benchmark.
var checkedDocs = []string{
	"README.md",
	"DESIGN.md",
	"internal/bench/experiments_prose.md",
	".claude/skills/verify/SKILL.md",
}

var (
	// testName is a go test function name: the prefix, then an exported
	// remainder.
	testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*`)
	// pattern marks code holding a -run/-bench pattern, whose names need
	// only prefix the functions they select.
	pattern = regexp.MustCompile(`-run|-bench|-fuzz|[|(*^$]`)
	makeCmd = regexp.MustCompile(`\bmake[ \t]+([a-z][\w-]*)`)
	// hotbenchArgs is a hotbench command line, up to a comment or the
	// next command; flagArg and runArg pick its flags and -run IDs.
	hotbenchArgs = regexp.MustCompile(`\bhotbench\b([^#|;&\n]*)`)
	flagArg      = regexp.MustCompile(`(?:^|\s)-([a-z][\w-]*)`)
	runArg       = regexp.MustCompile(`(?:^|\s)-run[ =]([\w,.-]+)`)
	fence        = regexp.MustCompile("(?m)^[ \t]*(?:```|~~~).*$")
	codeSpan     = regexp.MustCompile("(`+)([^`]+)(`+)")
	target       = regexp.MustCompile(`(?m)^([\w.-]+)[ \t]*:([^=]|$)`)
	// repoPath is a path into the tree: a top-level directory, then path
	// characters and {a,b} groups.  A :line suffix ends it.
	repoPath = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:internal|cmd|examples|benchmarks|incidents|\.claude|\.github)/(?:[\w.*<>/-]|\{[^{}\s]*\})*)`)
	// qualified is a Go reference: a lower-case package name, an
	// exported name, and optionally a member of it.  A preceding dot or
	// slash makes it part of a selector chain or a path instead.
	qualified = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)
)

// TestDocsResolve reads the code the documents quote — inline spans and
// fenced blocks — and fails on every test, benchmark, fuzz target or
// example name that no _test.go file defines, on every `make X` whose X
// is not a Makefile target, on every `hotbench -flag` that
// cmd/hotbench/main.go does not define and every `hotbench -run id` that
// names no registered experiment, on every repo path that does not
// exist, and on every pkg.Name or pkg.Type.Member whose package is one of
// the module's and declares no such exported name, method or field.
func TestDocsResolve(t *testing.T) {
	funcs := testFuncs(t)
	decls := moduleDecls(t)
	rules := makefileRules(t)
	flags := hotbenchFlags(t)
	experiments := experimentIDs()
	// The .gitignore's directories hold build and run output, which a
	// fresh checkout does not have: a path under one need not exist.
	ignore, err := os.ReadFile(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	var outputDirs []string
	for _, l := range strings.Split(string(ignore), "\n") {
		if strings.HasSuffix(l, "/") && !strings.HasPrefix(l, "#") {
			outputDirs = append(outputDirs, l)
		}
	}
	for _, doc := range checkedDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, c := range quotedCode(text) {
			line := 1 + strings.Count(text[:c.at], "\n")
			prefix := pattern.MatchString(c.code)
			for _, m := range testName.FindAllStringIndex(c.code, -1) {
				name := c.code[m[0]:m[1]]
				if m[0] > 0 && c.code[m[0]-1] == '<' {
					continue // a placeholder: test:<TestName>
				}
				if !resolves(funcs, name, prefix) {
					t.Errorf("%s:%d: %s names no test function", doc, line, name)
				}
			}
			for _, m := range makeCmd.FindAllStringSubmatch(c.code, -1) {
				if _, ok := rules[m[1]]; !ok {
					t.Errorf("%s:%d: make %s is not a Makefile target", doc, line, m[1])
				}
			}
			for _, m := range qualified.FindAllStringSubmatch(c.code, -1) {
				names, ok := decls[m[1]]
				if !ok {
					continue // not a module package: sync.Mutex, cipher.NewCTR
				}
				ref := m[2]
				if m[3] != "" && !names[ref+"."+m[3]] {
					ref += "." + m[3]
				}
				if !names[ref] {
					t.Errorf("%s:%d: %s.%s is declared in no module package %s", doc, line, m[1], ref, m[1])
				}
			}
			for _, args := range hotbenchArgs.FindAllStringSubmatch(c.code, -1) {
				for _, m := range flagArg.FindAllStringSubmatch(args[1], -1) {
					if !flags[m[1]] {
						t.Errorf("%s:%d: hotbench -%s is not a flag of cmd/hotbench", doc, line, m[1])
					}
				}
				for _, m := range runArg.FindAllStringSubmatch(args[1], -1) {
					for _, id := range strings.Split(m[1], ",") {
						if id != "all" && !experiments[id] {
							t.Errorf("%s:%d: hotbench -run %s names no registered experiment", doc, line, id)
						}
					}
				}
			}
			for _, m := range repoPath.FindAllStringSubmatch(c.code, -1) {
				if strings.ContainsAny(m[1], "*<") || slices.ContainsFunc(outputDirs, func(d string) bool { return strings.HasPrefix(m[1], d) }) {
					continue // a glob, a placeholder or output
				}
				for _, p := range expandBraces(strings.TrimRight(m[1], ".")) {
					if _, err := os.Stat(p); err != nil {
						t.Errorf("%s:%d: %s does not exist", doc, line, p)
					}
				}
			}
		}
	}
}

// testFuncs collects the name of every top-level function in the tree's
// _test.go files.
func testFuncs(t *testing.T) []string {
	var funcs []string
	parseGo(t, func(path string, f *ast.File) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs = append(funcs, fn.Name.Name)
			}
		}
	})
	return funcs
}

// moduleDecls indexes the root module's non-test Go files by package
// name: each package's exported package-level declarations, and for each
// exported type its methods and struct fields or interface methods as
// Type.Member, including the members an embedded module type promotes.
// Main packages and the repo benchmark's module are left out.  Packages
// that share a name share one index, which can only let more references
// resolve.
func moduleDecls(t *testing.T) map[string]map[string]bool {
	decls := map[string]map[string]bool{}
	// embed is one embedded field: type pkg.typ embeds from.typ.
	type embed struct{ pkg, typ, from, fromTyp string }
	var embeds []embed
	parseGo(t, func(path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "benchmarks"+string(filepath.Separator)) || f.Name.Name == "main" {
			return
		}
		names := decls[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			decls[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = ast.IsExported(d.Name.Name)
				} else if typ := recvName(d.Recv.List[0].Type); ast.IsExported(typ) {
					names[typ+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							names[n.Name] = ast.IsExported(n.Name)
						}
					case *ast.TypeSpec:
						if !ast.IsExported(sp.Name.Name) {
							continue
						}
						names[sp.Name.Name] = true
						var members []*ast.Field
						switch typ := sp.Type.(type) {
						case *ast.StructType:
							members = typ.Fields.List
						case *ast.InterfaceType:
							members = typ.Methods.List
						}
						for _, field := range members {
							for _, n := range field.Names {
								names[sp.Name.Name+"."+n.Name] = true
							}
							if field.Names == nil { // embedded: named by its type
								typ := recvName(field.Type)
								names[sp.Name.Name+"."+typ] = true
								embeds = append(embeds, embed{f.Name.Name, sp.Name.Name, qualifier(field.Type, f.Name.Name), typ})
							}
						}
					}
				}
			}
		}
	})
	// Promote embedded types' members until nothing changes, so chains
	// of embeddings resolve too.
	for changed := true; changed; {
		changed = false
		for _, e := range embeds {
			for name, ok := range decls[e.from] {
				member, found := strings.CutPrefix(name, e.fromTyp+".")
				if key := e.typ + "." + member; ok && found && !decls[e.pkg][key] {
					decls[e.pkg][key] = true
					changed = true
				}
			}
		}
	}
	return decls
}

// qualifier returns the package an embedded field's type is declared
// in: its import qualifier, or own for an unqualified type.
func qualifier(e ast.Expr, own string) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			if pkg, ok := x.X.(*ast.Ident); ok {
				return pkg.Name
			}
			return own
		default:
			return own
		}
	}
}

// parseGo parses every Go file in the tree outside dot directories and
// hands it to visit with its path.
func parseGo(t *testing.T, visit func(path string, f *ast.File)) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// expandBraces expands each {a,b} group of a path into one path per
// alternative.
func expandBraces(p string) []string {
	lo := strings.IndexByte(p, '{')
	if lo < 0 {
		return []string{p}
	}
	hi := lo + strings.IndexByte(p[lo:], '}')
	var out []string
	for _, alt := range strings.Split(p[lo+1:hi], ",") {
		out = append(out, expandBraces(p[:lo]+alt+p[hi+1:])...)
	}
	return out
}

// resolves reports whether name is a test function, or in a pattern the
// prefix of one.
func resolves(funcs []string, name string, prefix bool) bool {
	for _, fn := range funcs {
		if fn == name || prefix && strings.HasPrefix(fn, name) {
			return true
		}
	}
	return false
}

// code is one piece of quoted code: an inline span or a fenced block's
// line, at its byte offset in the document.
type code struct {
	at   int
	code string
}

// quotedCode splits a markdown document into its quoted code: every line
// of a fenced block, and every inline code span of the text between
// fences (a span may wrap onto the next line).
func quotedCode(text string) []code {
	var out []code
	in, from := false, 0
	spans := func(to int) {
		for _, m := range codeSpan.FindAllStringSubmatchIndex(text[from:to], -1) {
			if m[3]-m[2] == m[7]-m[6] {
				out = append(out, code{from + m[4], text[from+m[4] : from+m[5]]})
			}
		}
	}
	for _, f := range fence.FindAllStringIndex(text, -1) {
		if in {
			at := from
			for _, l := range strings.SplitAfter(text[from:f[0]], "\n") {
				out = append(out, code{at, l})
				at += len(l)
			}
		} else {
			spans(f[0])
		}
		in, from = !in, f[1]
	}
	if !in {
		spans(len(text))
	}
	return out
}
