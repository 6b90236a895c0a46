package core

// cpuRelax is the PAUSE instruction of Section 4.2 (relax_amd64.s): the
// spin-wait hint that keeps the goroutine on its thread.
func cpuRelax()
