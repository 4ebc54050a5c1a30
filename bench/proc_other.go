//go:build !linux

package main

import (
	"errors"
	"syscall"
	"time"
)

// The benchmark reads CPU time and peak RSS from /proc; elsewhere it
// builds (so `go build ./...` stays green) and refuses to measure.

func childAttr() *syscall.SysProcAttr { return nil }

func procUsage(int) (time.Duration, float64, error) {
	return 0, 0, errors.New("the benchmark needs Linux /proc")
}

func ownCPU() time.Duration { return 0 }
