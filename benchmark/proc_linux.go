//go:build linux

package main

import (
	"os"
	"os/exec"
	"syscall"
)

// dieWithParent kills the workload process if the benchmark itself is
// killed, so no run outlives the command that started it.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// maxRSSMiB is the finished process's peak resident set (Linux reports
// ru_maxrss in KiB).
func maxRSSMiB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}
