package profile_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hotcalls/internal/profile"
	"hotcalls/internal/telemetry"
)

// exportProfile builds a small fixed profile with nesting, repeats, and
// every event class the exporters must handle.
func exportProfile() *profile.Profile {
	events := []telemetry.Event{
		{Kind: telemetry.KindMemAccess, Name: "load", TS: 1820, Dur: 12},
		{Kind: telemetry.KindMemAccess, Name: "load", TS: 1856, Dur: 12},
		{Kind: telemetry.KindEEnter, Name: "eenter", TS: 1844, Dur: 3034, Arg: 1},
		{Kind: telemetry.KindEcall, Name: "ecall:ecall_empty", TS: 0, Dur: 8640},
		// Second run, fresh clock.
		{Kind: telemetry.KindMemAccess, Name: "load", TS: 1820, Dur: 12},
		{Kind: telemetry.KindMemAccess, Name: "load", TS: 1856, Dur: 12},
		{Kind: telemetry.KindEEnter, Name: "eenter", TS: 1844, Dur: 3034, Arg: 1},
		{Kind: telemetry.KindEcall, Name: "ecall:ecall_empty", TS: 0, Dur: 8640},
		// A HotCall on its own clock.
		{Kind: telemetry.KindSpin, Name: "hotcall-sync", TS: 0, Dur: 571},
		{Kind: telemetry.KindHotECall, Name: "hotecall:ecall_empty", TS: 0, Dur: 571},
	}
	return profile.Analyze(events)
}

// TestFoldedGolden is the export-determinism satellite for folded
// stacks: identical traces produce byte-identical, checked-in output
// (set UPDATE_GOLDEN=1 to regenerate).
func TestFoldedGolden(t *testing.T) {
	p := exportProfile()
	var a, b strings.Builder
	if err := p.WriteFolded(&a); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("folded export is not deterministic across calls")
	}
	golden := filepath.Join("testdata", "folded_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(a.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with UPDATE_GOLDEN=1): %v", err)
	}
	if a.String() != string(want) {
		t.Fatalf("folded export drifted from golden:\n got:\n%s\nwant:\n%s", a.String(), want)
	}
}

// TestFoldedFormat checks the flamegraph.pl contract on the content
// level: "frame;frame value" lines, aggregated repeats, self-time
// weights that sum to the trace's attributed total.
func TestFoldedFormat(t *testing.T) {
	p := exportProfile()
	var sb strings.Builder
	if err := p.WriteFolded(&sb); err != nil {
		t.Fatal(err)
	}
	var total uint64
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	seen := map[string]bool{}
	for _, line := range lines {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed folded line %q", line)
		}
		stack := line[:i]
		if seen[stack] {
			t.Fatalf("duplicate stack %q (must be aggregated)", stack)
		}
		seen[stack] = true
		var v uint64
		for _, ch := range line[i+1:] {
			if ch < '0' || ch > '9' {
				t.Fatalf("non-numeric weight in %q", line)
			}
			v = v*10 + uint64(ch-'0')
		}
		total += v
	}
	// Two 8640-cycle ecalls plus one 571-cycle hotcall, fully attributed.
	if want := uint64(2*8640 + 571); total != want {
		t.Fatalf("folded weights sum to %d, want %d", total, want)
	}
	if !seen["ecall:ecall_empty;eenter;load"] {
		t.Fatalf("missing nested stack; got %v", lines)
	}
}

// TestMarkdownTables smoke-tests the Table 1 / Table 2 renderers.
func TestMarkdownTables(t *testing.T) {
	p := exportProfile()
	var call, cat strings.Builder
	if err := p.WriteCallTable(&call); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteCategoryTable(&cat); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(call.String(), "ecall:ecall_empty | 2 | 8640 | 8640") {
		t.Fatalf("call table:\n%s", call.String())
	}
	if !strings.Contains(cat.String(), "hotecall:ecall_empty") || !strings.Contains(cat.String(), "100.0%") {
		t.Fatalf("category table:\n%s", cat.String())
	}
}
