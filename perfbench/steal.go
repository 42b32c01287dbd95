package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// Host steal gating. On a shared host the hypervisor at times runs other
// guests while this VM's CPUs have work ("steal" in /proc/stat). Here
// steal reached 5-9% of the VM's CPU time over whole runs, and latency in
// such phases rose by 10-60%, more on the workloads whose requests keep
// both CPUs busy. Those windows measure
// the host, not the program, so the end-to-end latency and throughput
// figures leave them out, and the phase runs on until half its length in
// kept windows has been collected. Steal is time the hypervisor withheld
// from the VM; no change to costd can produce it.
const (
	stealWindow   = time.Second // length of one gating window
	maxStealShare = 0.02        // steal above this share of the VM's CPU time drops a window
	maxStretch    = 1.5         // a phase ends by this multiple of its length
)

// window is one stealWindow of a timed phase: the samples of the requests
// sent within it, its length, and whether it counts.
type window struct {
	first, end int
	dur        time.Duration
	kept       bool
}

// stealGate splits a closed loop into windows and reads the host's steal
// time at each boundary.
type stealGate struct {
	windows []window
	open    window
	start   time.Duration // when the open window began
	cpus    int           // CPUs counted when the open window began, 0 if unread
	steal0  int64         // steal ticks when the open window began
	kept    time.Duration // total length of the kept windows
}

// before is called just before request i is sent, at time now into the
// phase; it closes the open window once stealWindow has passed.
func (g *stealGate) before(i int, now time.Duration) {
	if i == 0 {
		g.begin(0, now)
		return
	}
	if now-g.start >= stealWindow {
		g.finish(i, now)
		g.begin(i, now)
	}
}

func (g *stealGate) begin(i int, now time.Duration) {
	g.cpus, g.steal0 = readSteal()
	g.open, g.start = window{first: i}, now
}

// finish closes the open window after its last sample, end-1.
func (g *stealGate) finish(end int, now time.Duration) {
	cpus, steal := readSteal()
	w := g.open
	w.end, w.dur = end, now-g.start
	// /proc/stat counts in USER_HZ ticks of 10 ms, summed over all CPUs.
	// A window whose steal could not be read counts.
	stolen := time.Duration(steal-g.steal0) * 10 * time.Millisecond
	w.kept = cpus == 0 || g.cpus == 0 || float64(stolen) <= maxStealShare*float64(w.dur)*float64(cpus)
	if w.kept {
		g.kept += w.dur
	}
	g.windows = append(g.windows, w)
}

// done reports whether a phase of length dur may end at elapsed: it has run
// its length and half of it was kept, or it has stretched as far as allowed.
func (g *stealGate) done(elapsed, dur time.Duration) bool {
	return elapsed >= dur && (2*g.kept >= dur || float64(elapsed) >= maxStretch*float64(dur))
}

// keptSamples returns the indices of the samples in kept windows, or of all
// samples when no window was kept, and the length they cover.
func (g *stealGate) keptSamples(n int, wall time.Duration) ([]int, time.Duration) {
	var idx []int
	for _, w := range g.windows {
		if w.kept {
			for i := w.first; i < w.end; i++ {
				idx = append(idx, i)
			}
		}
	}
	if len(idx) == 0 {
		for i := 0; i < n; i++ {
			idx = append(idx, i)
		}
		return idx, wall
	}
	return idx, g.kept
}

// droppedShare is the share of the phase's length in dropped windows.
func (g *stealGate) droppedShare() float64 {
	var all time.Duration
	for _, w := range g.windows {
		all += w.dur
	}
	if all == 0 {
		return 0
	}
	return 1 - float64(g.kept)/float64(all)
}

// readSteal returns the number of CPUs /proc/stat lists and the steal
// ticks summed over them, or zeros if it cannot be read (no gating then).
// Tests replace it.
var readSteal = readProcSteal

func readProcSteal() (cpus int, steal int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		f := bytes.Fields(line)
		if len(f) == 0 || !bytes.HasPrefix(f[0], []byte("cpu")) {
			continue
		}
		if len(f[0]) > 3 {
			cpus++
			continue
		}
		// cpu user nice system idle iowait irq softirq steal ...
		if len(f) < 9 {
			return 0, 0
		}
		if steal, err = strconv.ParseInt(string(f[8]), 10, 64); err != nil {
			return 0, 0
		}
	}
	return cpus, steal
}
