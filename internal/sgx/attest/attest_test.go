package attest

import (
	"errors"
	"testing"

	"hotcalls/internal/sgx"
	"hotcalls/internal/sim"
)

func buildEnclave(t *testing.T, p *sgx.Platform, firstByte byte) *sgx.Enclave {
	t.Helper()
	var clk sim.Clock
	e := p.ECreate(&clk, 1<<20, 1, sgx.Attributes{ProdID: 3, SVN: 2})
	content := make([]byte, sgx.PageSize)
	content[0] = firstByte
	if err := e.EAdd(&clk, 0, content); err != nil {
		t.Fatal(err)
	}
	if err := e.EInit(&clk); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRemoteAttestation(t *testing.T) {
	p := sgx.NewPlatform(1)
	e := buildEnclave(t, p, 1)
	svc := NewService()
	qe, err := svc.Provision(p, "platform-A")
	if err != nil {
		t.Fatal(err)
	}
	r := EReport(p, e, sgx.Measurement{}, ReportData{})
	q, err := qe.Quote(r)
	if err != nil {
		t.Fatalf("quoting failed: %v", err)
	}
	if err := svc.Verify(q); err != nil {
		t.Fatalf("remote verification failed: %v", err)
	}
	if q.Report.Measurement != e.MRENCLAVE() {
		t.Fatal("quote carries wrong identity")
	}
}

func TestQuoteRejectsForgedReport(t *testing.T) {
	p := sgx.NewPlatform(1)
	e := buildEnclave(t, p, 1)
	svc := NewService()
	qe, _ := svc.Provision(p, "platform-A")
	r := EReport(p, e, sgx.Measurement{}, ReportData{})
	r.Measurement[0] ^= 1 // claim a different identity
	if _, err := qe.Quote(r); !errors.Is(err, ErrBadReportMAC) {
		t.Fatalf("QE accepted forged report: %v", err)
	}
}

func TestVerifyRejectsTamperedQuote(t *testing.T) {
	p := sgx.NewPlatform(1)
	e := buildEnclave(t, p, 1)
	svc := NewService()
	qe, _ := svc.Provision(p, "platform-A")
	q, err := qe.Quote(EReport(p, e, sgx.Measurement{}, ReportData{}))
	if err != nil {
		t.Fatal(err)
	}
	q.Report.Attributes.Debug = true // flip an attribute after signing
	if err := svc.Verify(q); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("tampered quote verified: %v", err)
	}
}

func TestVerifyRejectsUnknownPlatform(t *testing.T) {
	p := sgx.NewPlatform(1)
	e := buildEnclave(t, p, 1)
	svc := NewService()
	qe, _ := svc.Provision(p, "platform-A")
	q, err := qe.Quote(EReport(p, e, sgx.Measurement{}, ReportData{}))
	if err != nil {
		t.Fatal(err)
	}
	q.PlatformID = "rogue"
	if err := svc.Verify(q); !errors.Is(err, ErrUnknownSigner) {
		t.Fatalf("err = %v, want ErrUnknownSigner", err)
	}
}

func TestCrossPlatformReportRejected(t *testing.T) {
	// A report produced on platform 1 must not be quoted on platform 2:
	// the fused secrets differ.
	p1 := sgx.NewPlatform(1)
	p2 := sgx.NewPlatform(2)
	src := buildEnclave(t, p1, 1)
	qe2, _ := NewService().Provision(p2, "platform-B")
	r := EReport(p1, src, sgx.Measurement{}, ReportData{})
	if _, err := qe2.Quote(r); !errors.Is(err, ErrBadReportMAC) {
		t.Fatalf("cross-platform report verified: %v", err)
	}
}
