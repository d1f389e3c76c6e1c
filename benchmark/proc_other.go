//go:build unix && !linux

package main

import (
	"os"
	"os/exec"
	"syscall"
)

// dieWithParent has no portable equivalent of Linux's parent-death
// signal; the parent's timeout still kills and reaps the child.
func dieWithParent(cmd *exec.Cmd) {}

// maxRSSMiB is the finished process's peak resident set (the BSDs and
// macOS report ru_maxrss in bytes).
func maxRSSMiB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / (1 << 20)
	}
	return 0
}
