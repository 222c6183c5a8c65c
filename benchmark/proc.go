package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is where the benchmark runs: the checkout's root, the directory its
// outputs go to, and the two programs under test built from source.
type env struct {
	root, out        string
	serverBin, stamp string
}

// findRoot returns the checkout: the directory holding BENCHMARK.json, which
// is the working directory or, under `go run -C benchmark .`, its parent.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no BENCHMARK.json in %s or its parent", wd)
}

// newEnv builds the programs under test from the checkout's source, with
// default flags.
func newEnv(ctx context.Context, root string) (*env, error) {
	e := &env{root: root, out: filepath.Join(root, "benchmark", "out")}
	bin := filepath.Join(e.out, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	e.serverBin = filepath.Join(bin, "specpmt-server")
	e.stamp = filepath.Join(bin, "specpmt-bench")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/specpmt-server", "./cmd/specpmt-bench")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building the programs under test: %w\n%s", err, msg)
	}
	return e, nil
}

// child is a started program under test.
type child struct {
	cmd     *exec.Cmd
	started time.Time
	log     *os.File
}

// startChild starts bin with its standard error captured in logPath. The
// context's cancellation terminates it.
func startChild(ctx context.Context, logPath, bin string, args ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stderr = logf
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second // then SIGKILL
	c := &child{cmd: cmd, started: time.Now(), log: logf}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	return c, nil
}

// stop asks the child to drain and exit, kills it if it does not, and
// returns once it has ended.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { c.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-done
	}
	c.log.Close()
}

// cpuSeconds is the child's CPU time so far, user plus system. It sums the
// nanosecond on-CPU times of the child's threads (/proc/<pid>/task/*/schedstat)
// and, on a kernel without them, falls back to the clock ticks of
// /proc/<pid>/stat. ok is false where neither exists (not Linux), and the
// metrics built on it are then left out, not reported as zero.
func (c *child) cpuSeconds() (s float64, ok bool) {
	pid := c.cmd.Process.Pid
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns float64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if f := strings.Fields(string(b)); err == nil && len(f) > 0 {
			v, _ := strconv.ParseFloat(f[0], 64)
			ns += v
		}
	}
	if ns > 0 {
		return ns / 1e9, true
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, false
	}
	// utime and stime are the 12th and 13th fields after the parenthesised
	// command name, in clock ticks (USER_HZ, 100 on Linux).
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, false
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100, err1 == nil && err2 == nil
}

// rssPeakMB is the child's peak resident set (VmHWM), fail-soft like
// cpuSeconds.
func (c *child) rssPeakMB() (mb float64, ok bool) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// hostCPUTicks reads the host-wide CPU line of /proc/stat: ticks the
// hypervisor ran something else while this machine wanted the CPU (steal),
// and all ticks. On a shared host steal marks a run a neighbour disturbed.
func hostCPUTicks() (steal, total float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	const stealField = 7 // user nice system idle iowait irq softirq steal ...
	for i, field := range f[1:] {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return 0, 0, false
		}
		if total += v; i == stealField {
			steal = v
		}
	}
	return steal, total, true
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}
