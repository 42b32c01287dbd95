// Command perfbench is costd's end-to-end benchmark with a traced per-layer
// run. It execs a prebuilt costd with its default settings, drives it with
// internal/client in a closed loop over one connection, checks every answer
// against the in-process result of the same public functions, and prints
// one JSON result line. See README.md for the workloads and metrics.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload price --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	costd    string // prebuilt costd binary
	out      string // directory for spans and result records
}

// setupStarts is how many times each untraced run starts costd to take the
// median set-up time; the last start serves the run.
const setupStarts = 21

func main() {
	var cfg config
	var seconds int
	var trace int
	var seed uint64
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&seed, "seed", 1, "seed of the request sequence")
	flag.IntVar(&seconds, "seconds", 20, "seconds of timed load")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&cfg.costd, "costd", ".bench_build/costd", "prebuilt costd binary")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for spans and result records")
	flag.Parse()
	cfg.seed, cfg.seconds, cfg.trace = seed, time.Duration(seconds)*time.Second, trace == 1
	if !slices.Contains(workloadNames, cfg.workload) || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload one of", strings.Join(workloadNames, ", "),
			"--seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}

	// An interrupt cancels the run; deferred stops then reap costd.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run and records it, with the environment it
// ran in, under cfg.out.
func run(ctx context.Context, cfg config) (*result, error) {
	var res *result
	var err error
	if cfg.trace {
		res, err = runTraced(ctx, cfg)
	} else {
		res, err = runUntraced(ctx, cfg)
	}
	if err != nil {
		return nil, err
	}
	env := environment()
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d trace=%v %s\n", cfg.workload, cfg.seed, cfg.trace, env)
	rec := struct {
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Seconds  float64 `json:"seconds"`
		Trace    bool    `json:"trace"`
		Env      string  `json:"env"`
		Result   *result `json:"result"`
	}{cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, env, res}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace)
	if err := writeFile(cfg.out, name, raw); err != nil {
		return nil, err
	}
	return res, nil
}

// runUntraced is the end-to-end run: tracing off, every end-to-end metric.
func runUntraced(ctx context.Context, cfg config) (*result, error) {
	var setups []float64
	var srv *costd
	for k := 0; k < setupStarts; k++ {
		c, d, err := startCostd(cfg.costd)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if k < setupStarts-1 {
			c.stop()
		}
		srv = c
	}
	defer srv.stop()
	ph, err := timedPhase(ctx, cfg, srv, cfg.seconds)
	if err != nil {
		return nil, err
	}
	srv.stop()
	check(ctx, ph.reqs, ph.samples)
	failed := failures(ph.samples)
	m := ph.endToEnd(failed)
	m["setup_s"] = metric{median(setups), "s"}
	return &result{Correct: failed == 0, Attempted: len(ph.samples), Failed: failed, Metrics: m}, ctx.Err()
}

// phase is one timed closed-loop phase against one costd.
type phase struct {
	reqs     []request
	samples  []sample
	wall     time.Duration
	gate     *stealGate // the phase's windows, and which of them count
	cpu      time.Duration
	rss      int64              // largest resident set sampled between requests
	hwm      int64              // resident-set high-water mark at the end of the phase
	counters map[string]float64 // /metrics delta over the phase
}

// rssEvery is how often (in requests) costd's resident set is sampled
// during a timed phase; rssUntil stops the sampling after a fixed number
// of requests, below what a run completes on a slow host. The response
// cache holds up to 4096 answers, so memory grows with the number of
// requests served, which varies with the host's speed; a fixed count
// compares equal work across runs.
const rssEvery = 8

var rssUntil = map[string]int{wPrice: 400, wExplore: 160, wSimDeep: 96, wCoexplore: 160}

// timedPhase warms costd up, generates the request sequence and drives it
// for dur, scraping /metrics and the process's CPU time around the phase.
func timedPhase(ctx context.Context, cfg config, srv *costd, dur time.Duration) (*phase, error) {
	snd := newSender(srv.url)
	mean := snd.warmup(ctx, cfg.workload, cfg.seed)
	// Generate twice the requests the warm-up rate predicts, before timing.
	n := min(int(2*dur/max(mean, time.Microsecond))+32, 50000)
	ph := &phase{reqs: make([]request, n)}
	for i := range ph.reqs {
		ph.reqs[i] = gen(cfg.workload, cfg.seed, i)
	}
	m0, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	var rssErr error
	until := rssUntil[cfg.workload]
	ph.gate = &stealGate{}
	ph.samples, ph.wall = closedLoop(ctx, len(ph.reqs), dur, 0, ph.gate, func(i int) sample {
		sm := snd.send(ctx, ph.reqs[i])
		if i%rssEvery == 0 && i < until && rssErr == nil {
			var rss int64
			rss, rssErr = srv.memory("VmRSS")
			ph.rss = max(ph.rss, rss)
		}
		return sm
	})
	if rssErr != nil {
		return nil, rssErr
	}
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	if ph.hwm, err = srv.memory("VmHWM"); err != nil {
		return nil, err
	}
	m1, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	ph.cpu = cpu1 - cpu0
	ph.counters = map[string]float64{}
	for k, v := range m1 {
		ph.counters[k] = v - m0[k]
	}
	ph.reqs = ph.reqs[:len(ph.samples)]
	fmt.Fprintf(os.Stderr, "perfbench: timed phase %.1f s, %.0f%% of it left out for host steal\n",
		ph.wall.Seconds(), 100*ph.gate.droppedShare())
	return ph, nil
}

// endToEnd computes the user-visible metrics of an untraced phase. Latency
// and throughput come from the windows the steal gate kept; the success
// share, CPU time and memory from the whole phase. A failed request counts
// as taking the whole phase, so failures can only worsen the latency
// figures.
func (ph *phase) endToEnd(failed int) map[string]metric {
	var lat, first []float64
	completed := 0
	kept, span := ph.gate.keptSamples(len(ph.samples), ph.wall)
	for _, i := range kept {
		sm := ph.samples[i]
		l, f := sm.lat, sm.first
		if sm.err != nil {
			l, f = ph.wall, ph.wall
		} else {
			completed++
		}
		lat = append(lat, ms(l))
		first = append(first, ms(f))
	}
	n := float64(len(ph.samples))
	return map[string]metric{
		"req_per_s":          {float64(completed) / span.Seconds(), "req/s"},
		"latency_p50_ms":     {quantile(lat, 0.5), "ms"},
		"latency_p90_ms":     {quantile(lat, 0.9), "ms"},
		"first_event_p50_ms": {quantile(first, 0.5), "ms"},
		"success_share":      {(n - float64(failed)) / n, "ratio"},
		"rss_peak_mb":        {float64(ph.rss) / (1 << 20), "MB"},
		"cpu_ms_per_req":     {ms(ph.cpu) / n, "ms"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of v (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// environment describes what a result was measured on.
func environment() string {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(l, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	// costd is built by the same toolchain as this binary.
	return fmt.Sprintf("gomaxprocs=%d nproc=%d go=%s cpu=%q", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpu)
}

func writeFile(dir, name string, raw []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}
