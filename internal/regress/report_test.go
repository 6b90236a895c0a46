package regress

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hotcalls/internal/bench"
)

// TestMarkdownReportGolden pins the exact markdown the gate emits for a
// fixed failing comparison (set UPDATE_GOLDEN=1 to regenerate).  The
// report is what lands in CI logs and PR comments, so its shape is part
// of the contract.
func TestMarkdownReportGolden(t *testing.T) {
	base := fixtureReport()
	cand := fixtureReport()
	cand.GeneratedAt = "2026-08-05T01:00:00Z"
	cand.Summary.HotCallMedianCycles *= 1.10  // slower: fails
	cand.Experiments[1].Values[0].Got *= 1.10 // faster: fails the same way
	cand.Experiments = append(cand.Experiments, bench.JSONExperiment{
		ID: "fig9", Values: []bench.JSONValue{{Name: "lighttpd hotcalls", Got: 61000, Unit: "req/s"}},
	})

	res := Compare(base, cand)
	var a, b bytes.Buffer
	if err := res.WriteMarkdown(&a); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("markdown report is not deterministic across calls")
	}

	golden := filepath.Join("testdata", "report_golden.md")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, a.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with UPDATE_GOLDEN=1): %v", err)
	}
	if a.String() != string(want) {
		t.Fatalf("markdown report drifted from golden file:\n got:\n%s\nwant:\n%s", a.String(), want)
	}
}

// TestMarkdownPassReport checks the all-clear shape: no failures
// section, PASS verdict.
func TestMarkdownPassReport(t *testing.T) {
	base := fixtureReport()
	res := Compare(base, base)
	var buf bytes.Buffer
	if err := res.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("PASS")) {
		t.Fatalf("pass report lacks PASS verdict:\n%s", s)
	}
	if bytes.Contains(buf.Bytes(), []byte("## Gate failures")) {
		t.Fatalf("pass report has a failures section:\n%s", s)
	}
}
