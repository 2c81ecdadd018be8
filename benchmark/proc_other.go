//go:build !linux

package main

import (
	"errors"
	"os/exec"
	"time"
)

var errNeedsProc = errors.New("server CPU and memory accounting reads /proc and needs Linux")

func setPdeathsig(*exec.Cmd) {}

func cpuTime(int) (time.Duration, error) { return 0, errNeedsProc }

func peakRSS(int) (int64, error) { return 0, errNeedsProc }

func sleepFor(d time.Duration) { time.Sleep(d) }
