package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setPdeathsig makes the kernel kill the child if this process dies without
// running its cleanup, so no tierbase-server is ever orphaned.
func setPdeathsig(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTick = 100

// cpuTime returns the user+system CPU time pid has consumed.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Field 2 (comm) may hold spaces; fields 14 and 15 are counted after it.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu times %q %q", pid, f[11], f[12])
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// peakRSS returns VmHWM, the high-water mark of pid's resident set, in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM line", pid)
}

// sleepFor blocks the calling thread in nanosleep(2). time.Sleep parks the
// goroutine on a runtime timer, and an otherwise idle Go process polls its
// timers with millisecond resolution: too coarse to pace requests that are
// due tens of microseconds apart.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
