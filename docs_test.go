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
	pattern  = regexp.MustCompile(`-run|-bench|-fuzz|[|(*^$]`)
	makeCmd  = regexp.MustCompile(`\bmake[ \t]+([a-z][\w-]*)`)
	fence    = regexp.MustCompile("(?m)^[ \t]*(?:```|~~~).*$")
	codeSpan = regexp.MustCompile("(`+)([^`]+)(`+)")
	target   = regexp.MustCompile(`(?m)^([\w.-]+)[ \t]*:([^=]|$)`)
	// repoPath is a path into the tree: a top-level directory, then path
	// characters and {a,b} groups.  A :line suffix ends it.
	repoPath = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:internal|cmd|examples|benchmarks|incidents|\.claude|\.github)/(?:[\w.*<>/-]|\{[^{}\s]*\})*)`)
)

// TestDocsResolve reads the code the documents quote — inline spans and
// fenced blocks — and fails on every test, benchmark, fuzz target or
// example name that no _test.go file defines, on every `make X` whose X
// is not a Makefile target, and on every repo path that does not exist.
func TestDocsResolve(t *testing.T) {
	funcs := testFuncs(t)
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range target.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
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
				if !targets[m[1]] {
					t.Errorf("%s:%d: make %s is not a Makefile target", doc, line, m[1])
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
// _test.go files, skipping dot directories.
func testFuncs(t *testing.T) []string {
	var funcs []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs = append(funcs, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
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
