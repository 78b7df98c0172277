//go:build linux || darwin

package enginebench

import "syscall"

// processCPU returns the CPU time the process has used so far, user
// plus system, in nanoseconds; ok is false where it cannot be read.
func processCPU() (ns int64, ok bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), true
}
