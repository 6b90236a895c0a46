package hotcalls_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hotcalls/internal/bench"
)

// Readers, as a row names them.
const (
	// exactGate holds EXPERIMENTS.md, REPORT.md and BENCH_hotcalls.json
	// to a fresh run byte for byte and value for value.
	exactGate = "test:TestCommittedArtifactsCurrent"
	// fidelityGate holds the measured values to the paper's bands, the
	// check hotbench -docs exits 1 on.
	fidelityGate = "test:TestFidelityMatchesCommittedReport"
	// seedItem routes the base seed into every experiment and runs the
	// gate at several seeds.
	seedItem = "item:16"
)

// outputReaders is the reader table: one row per hotbench flag, per
// registered experiment, per Makefile target whose recipe writes a file,
// and per CI step that runs such a target or uploads an artifact.  Each
// row names who reads the output, as gate:<experiment> (the experiment
// has values in BENCH_hotcalls.json), test:<TestName> (a test asserting on
// the output's content) or item:<N> (an open ROADMAP item that will
// consume it; the row expires when the item closes).
var outputReaders = map[string][]string{
	"hotbench -run":  {exactGate, fidelityGate},
	"hotbench -docs": {exactGate, fidelityGate},
	"hotbench -seed": {seedItem},

	"experiment table1":         {"gate:table1"},
	"experiment fig2":           {"gate:fig2"},
	"experiment fig3":           {"gate:fig3"},
	"experiment fig4":           {"gate:fig4"},
	"experiment fig5":           {"gate:fig5"},
	"experiment fig6":           {"gate:fig6"},
	"experiment fig7":           {"gate:fig7"},
	"experiment fig8":           {"gate:fig8"},
	"experiment table2":         {"gate:table2"},
	"experiment fig10":          {"gate:fig10"},
	"experiment fig11":          {"gate:fig11"},
	"experiment ablation-calls": {"gate:ablation-calls"},
	"experiment ablation-cores": {"gate:ablation-cores"},
	"experiment breakdown":      {"gate:breakdown"},
	"experiment epc":            {"gate:epc"},
	"experiment profile":        {"gate:profile"},
	"experiment zerocopy":       {"gate:zerocopy"},

	"make experiments": {exactGate, fidelityGate},

	"ci make experiments":       {exactGate, fidelityGate},
	"ci upload fidelity report": {exactGate},
}

// writesFile matches a recipe or CI command that leaves a file behind:
// the experiment harness, a shell redirection, or a go tool output flag.
var writesFile = regexp.MustCompile(`cmd/hotbench|\s>\s*[^&\s]|\s-(?:o|cpuprofile|memprofile|blockprofile|mutexprofile|coverprofile|trace|outputdir)[\s=]`)

// TestEveryOutputHasAReader holds every program output to the reader
// table: it fails on a flag, experiment, writing Makefile target or
// writing CI step with no row, on a row that names none of them, and on
// a row whose reader does not resolve.
func TestEveryOutputHasAReader(t *testing.T) {
	outputs := map[string]bool{}
	for flag := range hotbenchFlags(t) {
		outputs["hotbench -"+flag] = true
	}
	for id := range experimentIDs() {
		outputs["experiment "+id] = true
	}
	rules := makefileRules(t)
	for target, recipe := range rules {
		if writesFile.MatchString(recipe) {
			outputs["make "+target] = true
		}
	}
	for _, step := range ciSteps(t) {
		writes := step.uploads || writesFile.MatchString(step.run)
		for _, m := range makeCmd.FindAllStringSubmatch(step.run, -1) {
			writes = writes || writesFile.MatchString(rules[m[1]])
		}
		if writes {
			outputs["ci "+step.name] = true
		}
	}

	gated := gatedExperiments(t)
	funcs := testFuncs(t)
	items := openItems(t)
	for out := range outputs {
		if _, ok := outputReaders[out]; !ok {
			t.Errorf("%s: no row in outputReaders names its reader; name one, or delete the output", out)
		}
	}
	for row, readers := range outputReaders {
		if !outputs[row] {
			t.Errorf("%s: the row names no flag, experiment, writing target or CI step; delete it", row)
		}
		if len(readers) == 0 {
			t.Errorf("%s: the row names no reader", row)
		}
		for _, r := range readers {
			kind, name, _ := strings.Cut(r, ":")
			var ok bool
			switch kind {
			case "gate":
				ok = gated[name]
			case "test":
				ok = slices.Contains(funcs, name)
			case "item":
				ok = items[name]
			}
			if !ok {
				t.Errorf("%s: reader %s does not resolve (gate: needs values in BENCH_hotcalls.json, test: an existing test, item: an open ROADMAP item)", row, r)
			}
		}
	}
}

// hotbenchFlags returns the name of every flag cmd/hotbench/main.go
// defines through the flag package.
func hotbenchFlags(t *testing.T) map[string]bool {
	f, err := parser.ParseFile(token.NewFileSet(), "cmd/hotbench/main.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg := 0 // flag.Bool(name, ...); flag.BoolVar(&v, name, ...)
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if arg >= len(call.Args) {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			flags[name] = true
		}
		return true
	})
	if len(flags) == 0 {
		t.Fatal("cmd/hotbench/main.go defines no flags: the parser no longer finds them")
	}
	return flags
}

// experimentIDs returns the registered experiments' IDs.
func experimentIDs() map[string]bool {
	ids := map[string]bool{}
	for _, e := range bench.All() {
		ids[e.ID] = true
	}
	return ids
}

// makefileRules returns each Makefile target with its recipe.
func makefileRules(t *testing.T) map[string]string {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	rules := map[string]string{}
	var current string
	for _, l := range strings.Split(string(mk), "\n") {
		if m := target.FindStringSubmatch(l); m != nil {
			current = m[1]
			rules[current] += ""
		} else if strings.HasPrefix(l, "\t") && current != "" {
			rules[current] += l + "\n"
		} else if !strings.HasPrefix(l, "#") {
			current = ""
		}
	}
	return rules
}

// ciStep is one step of the CI workflow.
type ciStep struct {
	name    string
	run     string
	uploads bool
}

// ciSteps reads the steps of .github/workflows/ci.yml.  A step without
// a name is named by its first key.
func ciSteps(t *testing.T) []ciStep {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(ci), "\n    steps:\n")
	if !ok {
		t.Fatal("ci.yml has no steps: the reader no longer finds them")
	}
	var steps []ciStep
	for _, l := range strings.Split(body, "\n") {
		l = strings.TrimSpace(l)
		if first, ok := strings.CutPrefix(l, "- "); ok {
			name, named := strings.CutPrefix(first, "name:")
			if !named {
				name = first
			}
			steps = append(steps, ciStep{name: strings.TrimSpace(name)})
			if named {
				continue
			}
			l = first
		}
		if len(steps) == 0 {
			continue
		}
		if run, ok := strings.CutPrefix(l, "run:"); ok {
			steps[len(steps)-1].run = strings.TrimSpace(run)
		} else if strings.HasPrefix(l, "uses: actions/upload-artifact") {
			steps[len(steps)-1].uploads = true
		}
	}
	return steps
}

// gatedExperiments returns the experiments with values in the committed
// BENCH_hotcalls.json.
func gatedExperiments(t *testing.T) map[string]bool {
	data, err := os.ReadFile("BENCH_hotcalls.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed bench.JSONReport
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	gated := map[string]bool{}
	for _, e := range committed.Experiments {
		gated[e.ID] = len(e.Values) > 0
	}
	return gated
}

// openItems returns the numbers of the items under ROADMAP.md's "Open
// items" heading.
func openItems(t *testing.T) map[string]bool {
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	_, open, ok := strings.Cut(string(roadmap), "\n## Open items\n")
	if !ok {
		t.Fatal(`ROADMAP.md has no "## Open items" section`)
	}
	open, _, _ = strings.Cut(open, "\n## ")
	items := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^(\d+)\. \*\*`).FindAllStringSubmatch(open, -1) {
		items[m[1]] = true
	}
	return items
}
