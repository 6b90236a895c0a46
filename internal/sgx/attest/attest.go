// Package attest implements SGX remote attestation on top of the
// simulated platform: EREPORT, a quoting enclave that signs reports with a
// provisioned ECDSA key, and the simulated Intel attestation service that
// verifies the quotes.
//
// The paper relies on this machinery only as context (Section 2); the
// openvpn port's enclave handshake uses it to attest the tunnel endpoint.
package attest

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"hotcalls/internal/sgx"
)

// Errors returned by verification.
var (
	ErrBadReportMAC  = errors.New("attest: report MAC verification failed")
	ErrBadQuote      = errors.New("attest: quote signature verification failed")
	ErrUnknownSigner = errors.New("attest: quote signed by unprovisioned platform")
)

// ReportData is the caller-chosen 64-byte payload bound into a report
// (typically a hash of a key-exchange message).
type ReportData [64]byte

// Report is the EREPORT output: the enclave's identity, MACed with the
// *target* enclave's report key so only the target can verify it locally.
type Report struct {
	Measurement sgx.Measurement
	Attributes  sgx.Attributes
	Data        ReportData
	MAC         [32]byte
}

// reportKey derives the report key a target enclave would obtain via
// EGETKEY: a MAC key bound to the platform's fused seal secret and the
// target's measurement.
func reportKey(platformSecret [32]byte, target sgx.Measurement) [32]byte {
	mac := hmac.New(sha256.New, platformSecret[:])
	mac.Write([]byte("REPORT-KEY"))
	mac.Write(target[:])
	var k [32]byte
	copy(k[:], mac.Sum(nil))
	return k
}

func reportBody(r *Report) []byte {
	body := make([]byte, 0, 32+8+64)
	body = append(body, r.Measurement[:]...)
	var attr [8]byte
	if r.Attributes.Debug {
		attr[0] = 1
	}
	binary.LittleEndian.PutUint16(attr[2:], r.Attributes.ProdID)
	binary.LittleEndian.PutUint16(attr[4:], r.Attributes.SVN)
	body = append(body, attr[:]...)
	body = append(body, r.Data[:]...)
	return body
}

// EReport produces a report describing `src`, verifiable by `target` on the
// same platform — the EREPORT instruction.
func EReport(p *sgx.Platform, src *sgx.Enclave, target sgx.Measurement, data ReportData) *Report {
	r := &Report{
		Measurement: src.MRENCLAVE(),
		Attributes:  src.Attributes(),
		Data:        data,
	}
	key := reportKey(p.SealSecret(), target)
	mac := hmac.New(sha256.New, key[:])
	mac.Write(reportBody(r))
	copy(r.MAC[:], mac.Sum(nil))
	return r
}

// Quote is a remotely verifiable statement: a report countersigned by the
// platform's quoting enclave with its provisioned attestation key.
type Quote struct {
	Report     Report
	PlatformID string
	SigR, SigS []byte
}

// Service is the simulated Intel attestation service: it provisions
// quoting keys to platforms at "manufacturing" and later tells remote
// verifiers whether a quote came from a genuine platform.
type Service struct {
	keys map[string]*ecdsa.PublicKey
}

// NewService returns an empty attestation service.
func NewService() *Service { return &Service{keys: make(map[string]*ecdsa.PublicKey)} }

// QuotingEnclave holds a platform's provisioned attestation key.
type QuotingEnclave struct {
	platform   *sgx.Platform
	platformID string
	key        *ecdsa.PrivateKey
}

// Provision creates a quoting enclave for a platform and registers its
// public key with the service, modelling EPID provisioning.
func (s *Service) Provision(p *sgx.Platform, platformID string) (*QuotingEnclave, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("attest: provisioning: %w", err)
	}
	s.keys[platformID] = &key.PublicKey
	return &QuotingEnclave{platform: p, platformID: platformID, key: key}, nil
}

// Quote verifies a local report addressed to the quoting enclave's own
// identity and countersigns it for remote verification.  In this model the
// QE accepts reports targeted at the zero measurement (its well-known
// identity).
func (q *QuotingEnclave) Quote(r *Report) (*Quote, error) {
	key := reportKey(q.platform.SealSecret(), sgx.Measurement{})
	mac := hmac.New(sha256.New, key[:])
	mac.Write(reportBody(r))
	if !hmac.Equal(mac.Sum(nil), r.MAC[:]) {
		return nil, ErrBadReportMAC
	}
	digest := sha256.Sum256(reportBody(r))
	sr, ss, err := ecdsa.Sign(rand.Reader, q.key, digest[:])
	if err != nil {
		return nil, fmt.Errorf("attest: signing: %w", err)
	}
	return &Quote{Report: *r, PlatformID: q.platformID, SigR: sr.Bytes(), SigS: ss.Bytes()}, nil
}

// Verify checks a quote as a remote client would: the service confirms the
// signature was produced by a genuine provisioned platform.
func (s *Service) Verify(q *Quote) error {
	pub, ok := s.keys[q.PlatformID]
	if !ok {
		return ErrUnknownSigner
	}
	digest := sha256.Sum256(reportBody(&q.Report))
	r := new(big.Int).SetBytes(q.SigR)
	ss := new(big.Int).SetBytes(q.SigS)
	if !ecdsa.Verify(pub, digest[:], r, ss) {
		return ErrBadQuote
	}
	return nil
}
