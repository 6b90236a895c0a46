// Package hotcalls is a Go reproduction of "Regaining Lost Cycles with
// HotCalls: A Fast Interface for SGX Secure Enclaves" (Weisse, Bertacco,
// Austin; ISCA 2017).
//
// The module contains a simulated SGX platform (enclave lifecycle,
// EENTER/EEXIT cost model, Memory Encryption Engine cost model, Enclave
// Page Cache paging model), a
// reimplementation of the Intel SDK's ecall/ocall runtime and of the glue
// Intel's edger8r generates (applied from parsed EDL declarations), the
// HotCalls interface itself — both a real concurrent implementation and
// its calibrated cycle model — the paper's three
// evaluation applications (memcached, openVPN, lighttpd) ported per
// Section 6.1, and a benchmark harness that regenerates every table and
// figure of the paper's evaluation.
//
// Start with Example_quickstart (example_test.go), then see DESIGN.md
// for the system inventory and EXPERIMENTS.md for paper-vs-measured results.
package hotcalls
