package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/service/api"
)

// sample is one request of a timed phase as the client saw it.
type sample struct {
	lat   time.Duration // send to the last byte (the done line for streams)
	first time.Duration // send to the first NDJSON line, or to the headers
	sum   [32]byte      // digest of the decoded response
	err   error         // transport error, non-200, refusal or error line
}

// sender drives one costd over a single keep-alive connection with
// internal/client, one request at a time.
type sender struct {
	c     *client.Client
	hdrAt time.Time // when the last response's headers arrived
}

func newSender(url string) *sender {
	s := &sender{c: client.New(url)}
	// Refusals (429/503) must surface as failures, not be retried away.
	s.c.MaxRetries = 0
	s.c.HTTPClient = &http.Client{Transport: headerClock{
		rt: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		s:  s,
	}}
	return s
}

// headerClock notes when each response's headers arrive: for the
// single-body endpoints that is the first byte costd sends.
type headerClock struct {
	rt http.RoundTripper
	s  *sender
}

func (h headerClock) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := h.rt.RoundTrip(r)
	h.s.hdrAt = time.Now()
	return resp, err
}

// send issues request q and digests the decoded answer after the clock
// stops, so hashing is not part of the latency.
func (s *sender) send(ctx context.Context, q request) sample {
	var (
		out   any
		lines []api.SimEvent
		first time.Time
		err   error
	)
	start := time.Now()
	switch q.kind {
	case kPRR:
		out, err = s.c.PRR(ctx, q.prr)
	case kBitstream:
		out, err = s.c.Bitstream(ctx, q.bit)
	case kExplore:
		var done *api.ExploreDone
		done, err = s.c.Explore(ctx, q.explore, nil)
		out = &api.ExploreEvent{Done: done}
	case kSimulate:
		var done *api.SimDone
		done, err = s.c.Simulate(ctx, q.sim, func(ev api.SimEvent) bool {
			if first.IsZero() {
				first = time.Now()
			}
			lines = append(lines, ev)
			return true
		})
		out = &api.SimEvent{Done: done}
	}
	end := time.Now()
	if first.IsZero() {
		first = s.hdrAt
	}
	sm := sample{lat: end.Sub(start), first: first.Sub(start), err: err}
	if err != nil {
		return sm
	}
	d := newDigest()
	for i := range lines {
		if err := d.add(&lines[i]); err != nil {
			sm.err = err
			return sm
		}
	}
	if err := d.add(out); err != nil {
		sm.err = err
	}
	sm.sum = d.sum()
	return sm
}

// warmup sends warm-up requests, drawn from a sequence of their own so
// that none of them answers a timed request from the cache, until both a
// second and three requests have passed. It returns their mean latency.
func (s *sender) warmup(ctx context.Context, w string, seed uint64) time.Duration {
	start := time.Now()
	n := 0
	for ; n < 3 || time.Since(start) < time.Second; n++ {
		if sm := s.send(ctx, gen(w, seed+warmupSeedOffset, n)); sm.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: warm-up request %d: %v\n", n, sm.err)
		}
	}
	return time.Since(start) / time.Duration(n)
}

// closedLoop runs do(0), do(1), ... one after another, each request sent
// only once the previous one completed, until dur has passed (and at least
// minN were done), all n are done, or ctx ends. With a steal gate g, the
// phase is cut into windows and runs on while g asks for more. It returns
// the samples and the wall time.
func closedLoop(ctx context.Context, n int, dur time.Duration, minN int, g *stealGate, do func(i int) sample) ([]sample, time.Duration) {
	var out []sample
	start := time.Now()
	done := func() bool {
		if g == nil {
			return time.Since(start) >= dur
		}
		return g.done(time.Since(start), dur)
	}
	for i := 0; i < n && ctx.Err() == nil && (i < minN || !done()); i++ {
		if g != nil {
			g.before(i, time.Since(start))
		}
		out = append(out, do(i))
	}
	wall := time.Since(start)
	if g != nil && len(out) > 0 {
		g.finish(len(out), wall)
	}
	if len(out) == n && wall < dur {
		fmt.Fprintf(os.Stderr, "perfbench: all %d generated requests sent before the phase ended\n", n)
	}
	return out, wall
}

// check recomputes every answered request in-process, outside the timed
// phase, on two goroutines, and marks each sample whose digest differs.
func check(ctx context.Context, reqs []request, samples []sample) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				want, _, err := evaluate(ctx, reqs[i], nil)
				if err != nil || want != samples[i].sum {
					samples[i].err = fmt.Errorf("request %d: answer differs from the in-process result (%v)", i, err)
				}
			}
		}()
	}
	for i := range samples {
		if samples[i].err == nil {
			next <- i
		}
	}
	close(next)
	wg.Wait()
}

// failures counts failed samples, printing the first few.
func failures(samples []sample) int {
	n := 0
	for _, sm := range samples {
		if sm.err != nil {
			if n < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: failed: %v\n", sm.err)
			}
			n++
		}
	}
	return n
}
