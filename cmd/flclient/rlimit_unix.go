//go:build unix

package main

import "syscall"

// raiseFDLimit lifts the soft open-file limit to the hard ceiling before a
// -subscribers run: N subscribers hold N descriptors in this process.
func raiseFDLimit() {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return
	}
	if rl.Cur < rl.Max {
		rl.Cur = rl.Max
		syscall.Setrlimit(syscall.RLIMIT_NOFILE, &rl)
	}
}
