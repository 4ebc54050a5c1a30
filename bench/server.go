package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dpuv2/internal/serve"
)

// server is a running system under test: a dpu-serve answering on base,
// its pprof listener on debug, and the process whose CPU time and peak
// RSS /proc reports. The benchmark talks to it only over HTTP and
// /proc, so a child process and the tests' in-process stand-in look the
// same to everything above this file.
type server struct {
	base, debug string
	pid         int
	stop        func() error
}

// procGroup owns every child process of a run so that each exit path —
// normal return, failed workload, signal, hard timeout — ends in one
// killAll. A panic on another goroutine skips deferred calls; children
// are also started with a parent-death signal for that case.
type procGroup struct {
	mu   sync.Mutex
	cmds map[*exec.Cmd]struct{}
}

func (p *procGroup) add(c *exec.Cmd) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmds == nil {
		p.cmds = make(map[*exec.Cmd]struct{})
	}
	p.cmds[c] = struct{}{}
}

func (p *procGroup) remove(c *exec.Cmd) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.cmds, c)
}

// killAll kills every child still registered. Waiting stays with the
// stop function of each server, the one place that calls cmd.Wait.
func (p *procGroup) killAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.cmds {
		_ = c.Process.Kill() // already exited is fine
	}
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed again before the child binds it; a process from a previous run
// still answering there is caught by startChild's probe.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild starts bin on two fresh loopback ports with procs Ps and
// returns once /healthz answers 200.
func (p *procGroup) startChild(ctx context.Context, bin string, args []string, procs int) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dport, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{
		base:  fmt.Sprintf("http://127.0.0.1:%d", port),
		debug: fmt.Sprintf("http://127.0.0.1:%d", dport),
	}
	// Nothing may answer on the chosen port yet: a reply now is a child
	// of an earlier run that was never reaped, and measuring it would
	// silently measure the wrong binary.
	if resp, err := http.Get(s.base + "/healthz"); err == nil {
		resp.Body.Close()
		return nil, fmt.Errorf("port %d already answers /healthz: a server from a previous run is still alive", port)
	}
	var log bytes.Buffer
	cmd := exec.Command(bin, append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-debug-addr", fmt.Sprintf("127.0.0.1:%d", dport)}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout, cmd.Stderr = &log, &log
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p.add(cmd)
	s.pid = cmd.Process.Pid
	exited := make(chan struct{})
	var waitErr error
	go func() { waitErr = cmd.Wait(); close(exited) }()
	var once sync.Once
	var stopErr error
	s.stop = func() error {
		once.Do(func() {
			defer p.remove(cmd)
			_ = cmd.Process.Signal(syscall.SIGINT) // graceful drain first
			select {
			case <-exited:
			case <-time.After(5 * time.Second):
				_ = cmd.Process.Kill()
				<-exited
				stopErr = fmt.Errorf("dpu-serve (pid %d) ignored SIGINT for 5s and was killed; its log:\n%s", s.pid, log.String())
			}
		})
		return stopErr
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-exited:
			_ = s.stop()
			return nil, fmt.Errorf("dpu-serve exited before becoming ready (%v); its log:\n%s", waitErr, log.String())
		case <-ctx.Done():
			_ = s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = s.stop()
			return nil, fmt.Errorf("dpu-serve not ready after 10s; its log:\n%s", log.String())
		}
	}
}

// memSample is the slice of runtime.MemStats the benchmark uses.
type memSample struct {
	totalAlloc, mallocs, numGC uint64
	// pauseNs is the runtime's ring of the most recent 256 GC pauses.
	pauseNs []uint64
}

// sample is one observation of a server: its /stats counters, its
// MemStats, and the CPU time and peak RSS the kernel charges it.
type sample struct {
	stats serve.StatsResponse
	mem   memSample
	cpu   time.Duration
	rssMB float64
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

func (s *server) sample() (sample, error) {
	var out sample
	b, err := get(s.base + "/stats")
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(b, &out.stats); err != nil {
		return out, fmt.Errorf("decode /stats: %w", err)
	}
	// The heap profile's debug=1 text ends with the process's MemStats;
	// it is the only MemStats a dpu-serve exposes.
	if b, err = get(s.debug + "/debug/pprof/heap?debug=1"); err != nil {
		return out, err
	}
	if out.mem, err = parseMemStats(b); err != nil {
		return out, err
	}
	if out.cpu, out.rssMB, err = procUsage(s.pid); err != nil {
		return out, err
	}
	return out, nil
}

// parseMemStats reads the "# Name = value" trailer of a debug=1 heap
// profile.
func parseMemStats(profile []byte) (memSample, error) {
	var m memSample
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(profile))
	sc.Buffer(nil, 1<<24) // records are short, but PauseNs is one long line
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		var dst *uint64
		switch name {
		case "TotalAlloc":
			dst = &m.totalAlloc
		case "Mallocs":
			dst = &m.mallocs
		case "NumGC":
			dst = &m.numGC
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				n, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					return m, fmt.Errorf("heap profile: PauseNs: %w", err)
				}
				m.pauseNs = append(m.pauseNs, n)
			}
			found++
			continue
		default:
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return m, fmt.Errorf("heap profile: %s: %w", name, err)
		}
		*dst = n
		found++
	}
	if err := sc.Err(); err != nil {
		return m, fmt.Errorf("heap profile: %w", err)
	}
	if found != 4 {
		return m, fmt.Errorf("heap profile: found %d of the 4 MemStats fields", found)
	}
	return m, nil
}

// gcPause returns the total GC pause between two samples of one
// process. MemStats keeps only the last 256 pauses; when more cycles
// than that ran in between, the mean of the ring stands in for the
// ones that were overwritten.
func gcPause(before, after memSample) time.Duration {
	cycles := after.numGC - before.numGC
	if cycles == 0 || len(after.pauseNs) == 0 {
		return 0
	}
	ring := uint64(len(after.pauseNs))
	var sum uint64
	n := min(cycles, ring)
	for i := uint64(0); i < n; i++ {
		// Cycle k's pause lives at index (k+255)%256.
		sum += after.pauseNs[(after.numGC-i+ring-1)%ring]
	}
	return time.Duration(float64(sum) / float64(n) * float64(cycles))
}
