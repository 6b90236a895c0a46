package hotcalls_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// maxOptionFields is the ceiling on exported fields of exported structs
// named *Options or *Thresholds under internal/ — the types a caller
// fills in to tune a package.  A field stays only while two non-test
// callers need different values (DESIGN.md, "Tuning constants"); every
// other default is a named constant in the package that uses it.  Like
// `make loc`'s ceilings, the number only goes down.
const maxOptionFields = 9

// TestOptionFieldRatchet counts the settable option fields and fails
// above maxOptionFields, listing every one.
func TestOptionFieldRatchet(t *testing.T) {
	var fields []string
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() || !isTuningStruct(ts.Name.Name) {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if name.IsExported() {
						fields = append(fields, f.Name.Name+"."+ts.Name.Name+"."+name.Name)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(fields)
	if len(fields) > maxOptionFields {
		t.Fatalf("%d exported option fields, ceiling %d:\n\t%s", len(fields), maxOptionFields, strings.Join(fields, "\n\t"))
	}
	t.Logf("%d exported option fields (ceiling %d)", len(fields), maxOptionFields)
}

func isTuningStruct(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Thresholds")
}
