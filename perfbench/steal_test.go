package main

import (
	"testing"
	"time"
)

// fakeSteal makes readSteal report two CPUs and the given steal ticks.
func fakeSteal(t *testing.T, ticks *int64) {
	t.Helper()
	old := readSteal
	readSteal = func() (int, int64) { return 2, *ticks }
	t.Cleanup(func() { readSteal = old })
}

// TestStealGate drives a gate through windows of 1 s with and without
// steal: a window over 2% of the VM's CPU time is dropped, the phase runs
// on until half its length is kept, and only the kept samples count.
func TestStealGate(t *testing.T) {
	var ticks int64
	fakeSteal(t, &ticks)
	g := &stealGate{}
	const dur = 4 * time.Second
	now := time.Duration(0)
	// Ten requests per second; seconds 0, 1 and 2 each lose 50 ms (5 ticks,
	// 2.5% of two CPUs), seconds 3 and later none.
	i := 0
	for ; !g.done(now, dur); i++ {
		g.before(i, now)
		now += 100 * time.Millisecond
		if i%10 == 9 && i < 30 {
			ticks += 5
		}
	}
	g.finish(i, now)
	// The window of seconds 4-5 closes before request 50, which is sent
	// and ends the phase: 2 s kept of a phase of 4 s.
	if now != 5100*time.Millisecond {
		t.Fatalf("phase ended at %v, want 5.1s", now)
	}
	idx, span := g.keptSamples(i, now)
	if len(idx) != 21 || idx[0] != 30 || span != 2100*time.Millisecond {
		t.Fatalf("kept %d samples from %v over %v, want 21 from 30 over 2.1s", len(idx), idx[:1], span)
	}
	if got, want := g.droppedShare(), 3.0/5.1; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("dropped share %v, want %v", got, want)
	}
}

// TestStealGateStretchCap stops a phase whose every window is dropped at
// maxStretch times its length, and then counts every sample.
func TestStealGateStretchCap(t *testing.T) {
	var ticks int64
	fakeSteal(t, &ticks)
	g := &stealGate{}
	const dur = 2 * time.Second
	now := time.Duration(0)
	i := 0
	for ; !g.done(now, dur); i++ {
		g.before(i, now)
		now += 100 * time.Millisecond
		ticks += 2
	}
	g.finish(i, now)
	if now != 3*time.Second {
		t.Fatalf("phase ended at %v, want 3s (1.5 times 2s)", now)
	}
	if idx, span := g.keptSamples(i, now); len(idx) != i || span != now {
		t.Fatalf("kept %d of %d samples over %v, want all over %v", len(idx), i, span, now)
	}
}
