//go:build !linux && !darwin

package enginebench

// processCPU reports that process CPU time is not read on this
// platform.
func processCPU() (ns int64, ok bool) { return 0, false }
