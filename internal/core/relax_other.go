//go:build !amd64

package core

// cpuRelax has no hint to issue here; the spin phase polls back to back.
func cpuRelax() {}
