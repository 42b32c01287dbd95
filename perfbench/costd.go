package main

import (
	"bufio"
	"bytes"
	"context"
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
)

// costd is one running costd child process.
type costd struct {
	cmd    *exec.Cmd
	url    string
	stderr *tailBuffer
	done   chan struct{} // closed once the process has been reaped
	err    error         // Wait's result, valid after done
}

// tailBuffer keeps the last few KiB of the child's standard error for
// diagnostics.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 4096; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// healthPoll is the interval between /healthz probes while costd starts.
// Set-up takes a few milliseconds, so coarser polling (or client.Health's
// retry backoff) would dominate the measurement.
const healthPoll = 200 * time.Microsecond

// startCostd execs the prebuilt costd binary on a free loopback port with
// its default settings (default GOMAXPROCS, cache, admission) and returns
// once /healthz answers 200, with the time from exec to that answer.
func startCostd(bin string) (*costd, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	c := &costd{url: "http://" + addr, stderr: &tailBuffer{}, done: make(chan struct{})}
	c.cmd = exec.Command(bin, "-addr", addr)
	c.cmd.Stdout = c.stderr
	c.cmd.Stderr = c.stderr
	// The child dies with the benchmark even if the benchmark is killed.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

	probe := &http.Client{
		Timeout:   time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting costd: %w", err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	for {
		resp, err := probe.Get(c.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(start), nil
			}
		}
		select {
		case <-c.done:
			return nil, 0, fmt.Errorf("costd exited during start-up: %v\n%s", c.err, c.stderr)
		case <-time.After(healthPoll):
		}
		if time.Since(start) > 20*time.Second {
			c.stop()
			return nil, 0, fmt.Errorf("costd did not become healthy within 20s\n%s", c.stderr)
		}
	}
}

// stop asks costd to shut down gracefully and waits until it has exited,
// killing it if the drain takes too long. Stopping a stopped costd is a
// no-op.
func (c *costd) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// cpuTime is the process's user+system CPU time from /proc/<pid>/stat.
func (c *costd) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	rest := raw[bytes.LastIndexByte(raw, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat times: %v %v", err1, err2)
	}
	// Linux reports these in USER_HZ clock ticks, 100 per second.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// memory reads a /proc/<pid>/status field in bytes: "VmRSS" (resident set
// now) or "VmHWM" (its high-water mark).
func (c *costd) memory(field string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// scrape reads costd's /metrics and sums every series by metric name
// (labels dropped).
func (c *costd) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}
