package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. Spans of one request share Workload and Req;
// Parent is the ID of the enclosing span (-1 for a request's root).
type span struct {
	Workload string `json:"workload"`
	Req      int    `json:"req"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Calls is how many calls of the layer the span covers (batched model
	// calls are timed as one span).
	Calls int `json:"calls,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; they are written out once, at the end of
// the run. A nil tracer records nothing, so untraced code paths call the
// same functions at the cost of a nil check.
type tracer struct {
	epoch    time.Time
	spans    []span
	workload string
	req      int
	root     int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), root: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// startRequest opens the root span of request req of workload w; every
// span begun until endRequest is its child.
func (t *tracer) startRequest(w string, req int) {
	t.workload, t.req, t.root = w, req, -1
	t.root = t.begin("request")
}

func (t *tracer) endRequest() {
	t.end(t.root, 1)
	t.root = -1
}

// begin opens a child span of the current request's root.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Workload: t.workload, Req: t.req, ID: id, Parent: t.root, Name: name, StartNS: t.now()})
	return id
}

// end closes span id, which covered calls layer calls.
func (t *tracer) end(id, calls int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = t.now()
	t.spans[id].Calls = calls
}

// mark records a closed child of span parent from the parent's start until
// now: the time from a call's start to an event inside it.
func (t *tracer) mark(name string, parent int) {
	if t == nil {
		return
	}
	p := t.spans[parent]
	t.spans = append(t.spans, span{Workload: p.Workload, Req: p.Req, ID: len(t.spans), Parent: parent,
		Name: name, StartNS: p.StartNS, EndNS: t.now(), Calls: 1})
}

// owner is the workload whose requests reach each engine layer: every
// traced run reports every layer metric, and a layer its own workload does
// not reach is timed on a short probe of its owner's sequence (same seed).
var owner = map[string]string{
	"core": wPrice, "floorplan": wPrice,
	"dse": wExplore,
	"sim": wSimDeep, "coex": wCoexplore,
}

// probeN is how many leading requests of a workload's sequence form its
// probe: a companion run replays them in-process, and the exact layer
// counts (dse, sim) are totals over them in every traced run, so they
// repeat exactly across runs with one seed.
var probeN = map[string]int{wPrice: 8, wExplore: 8, wSimDeep: 4, wCoexplore: 6}

// layerOf maps a span name to the layer group whose owner measures it.
func layerOf(name string) string {
	switch name {
	case "sim.coexplore", "sim.coexplore_bb", "sim.build_groups", "sim.replay":
		return "coex"
	}
	return name[:strings.IndexByte(name, '.')]
}

// serverPath lists the in-process spans whose work costd also does for a
// cold request; service.self_ms subtracts them from the HTTP round trip.
// A cached repeat costs costd only the decode, validation and key.
var serverPath = map[string]bool{
	"api.decode": true, "api.validate_key": true, "api.encode": true, "client.decode": true,
	"core.estimate": true, "core.size_bytes": true, "dse.explore": true,
	"sim.generate": true, "sim.build": true, "sim.run": true, "sim.coexplore": true,
}

var repeatPath = map[string]bool{"api.decode": true, "api.validate_key": true, "client.decode": true}

// runTraced is the per-layer run. An untraced phase on one costd gives the
// reference latency; a traced phase over the same sequence on a fresh costd
// follows each HTTP request with its in-process replay under spans; then
// probes of the other workloads time the layers this one does not reach.
func runTraced(ctx context.Context, cfg config) (*result, error) {
	half := cfg.seconds / 2
	srv, _, err := startCostd(cfg.costd)
	if err != nil {
		return nil, err
	}
	plain, err := timedPhase(ctx, cfg, srv, half)
	srv.stop()
	if err != nil {
		return nil, err
	}

	if srv, _, err = startCostd(cfg.costd); err != nil {
		return nil, err
	}
	snd := newSender(srv.url)
	snd.warmup(ctx, cfg.workload, cfg.seed)
	// costd serves with observability active (service.Server.Start), which
	// turns on per-device histograms in the floorplan hot path; the traced
	// in-process layer calls run in the same mode. The output checks run
	// with it off, which changes no answer and takes a third of the time.
	obs.SetActive(true)
	defer obs.SetActive(false)
	tr := newTracer()
	stats := map[string]map[int]layerStats{cfg.workload: {}}
	// Each request is followed by its in-process replay, whose digest
	// checks the answer on the spot.
	traced, _ := closedLoop(ctx, len(plain.reqs), half, probeN[cfg.workload], nil, func(i int) sample {
		q := plain.reqs[i]
		tr.startRequest(cfg.workload, i)
		sp := tr.begin("http")
		sm := snd.send(ctx, q)
		tr.end(sp, 1)
		want, ls, err := evaluate(ctx, q, tr)
		tr.endRequest()
		if sm.err == nil && (err != nil || want != sm.sum) {
			sm.err = fmt.Errorf("request %d: answer differs from the in-process result (%v)", i, err)
		}
		stats[cfg.workload][i] = ls
		return sm
	})
	srv.stop()

	for _, w := range workloadNames {
		if w == cfg.workload {
			continue
		}
		stats[w] = map[int]layerStats{}
		for i := 0; i < probeN[w]; i++ {
			tr.startRequest(w, i)
			_, ls, err := evaluate(ctx, gen(w, cfg.seed, i), tr)
			tr.endRequest()
			if err != nil {
				return nil, fmt.Errorf("probe %s %d: %w", w, i, err)
			}
			stats[w][i] = ls
		}
	}

	obs.SetActive(false)
	check(ctx, plain.reqs, plain.samples)
	failed := failures(plain.samples) + failures(traced)
	if err := writeSpans(cfg, tr.spans); err != nil {
		return nil, err
	}
	m := layerMetrics(cfg.workload, tr.spans, stats, plain.counters)
	var tracedLat []float64
	for _, sp := range tr.spans {
		if sp.Name == "http" {
			tracedLat = append(tracedLat, ms(sp.dur()))
		}
	}
	base := plain.endToEnd(0)["latency_p50_ms"].Value
	m["trace_overhead_share"] = metric{(median(tracedLat) - base) / base, "ratio"}
	m["costd.vmhwm_mb"] = metric{float64(plain.hwm) / (1 << 20), "MB"}
	n := len(plain.samples) + len(traced)
	return &result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: m}, ctx.Err()
}

func writeSpans(cfg config, spans []span) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return writeFile(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed), b.Bytes())
}

// layerMetrics turns the spans and exact counts into the per-layer
// metrics. Request-path metrics (api, client, service) come from workload
// w's own requests; engine metrics from their owner's requests.
func layerMetrics(w string, spans []span, stats map[string]map[int]layerStats, counters map[string]float64) map[string]metric {
	durs := map[string][]float64{} // span name -> durations (ms) on the measuring workload
	total := map[string]time.Duration{}
	calls := map[string]int{}
	children := map[int][]span{}
	for _, sp := range spans {
		measuring := w
		if sp.Name != "http" && sp.Name != "request" && !strings.HasPrefix(sp.Name, "api.") && !strings.HasPrefix(sp.Name, "client.") {
			measuring = owner[layerOf(sp.Name)]
		}
		if sp.Workload != measuring {
			continue
		}
		durs[sp.Name] = append(durs[sp.Name], ms(sp.dur()))
		total[sp.Name] += sp.dur()
		calls[sp.Name] += sp.Calls
		if sp.Parent >= 0 && sp.Workload == w {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}

	// service.self_ms: each HTTP round trip less the in-process time of the
	// same request's work on costd's path.
	var self []float64
	for _, sp := range spans {
		if sp.Name != "request" || sp.Workload != w {
			continue
		}
		var http, inproc time.Duration
		path := serverPath
		if stats[w][sp.Req].repeat {
			path = repeatPath
		}
		for _, c := range children[sp.ID] {
			switch {
			case c.Name == "http":
				http = c.dur()
			case path[c.Name]:
				inproc += c.dur()
			}
		}
		self = append(self, ms(http-inproc))
	}

	p50 := func(name string, scale float64) float64 { return quantile(durs[name], 0.5) * scale }
	mean := func(name string, scale float64) float64 {
		if calls[name] == 0 {
			return 0
		}
		return ms(total[name]) / float64(calls[name]) * scale
	}

	// Exact counts over the owners' probes.
	var bb struct{ partitions, evaluated, pricings, hits, pruned, live int64 }
	for i := 0; i < probeN[wExplore]; i++ {
		s := stats[wExplore][i].bb
		bb.partitions += s.Partitions
		bb.evaluated += s.Evaluated
		bb.pricings += s.GroupPricings
		bb.hits += s.MemoHits
		bb.pruned += s.PrunedFit + s.PrunedDominated
		bb.live += s.Partitions - s.CollapsedSymmetry
	}
	var events, allEvents int64
	var maxReady int
	var p99Wait, makespan float64
	for i := 0; i < probeN[wSimDeep]; i++ {
		s := stats[wSimDeep][i]
		events += s.events
		maxReady = max(maxReady, s.maxReady)
		if s.sim != nil {
			p99Wait += float64(s.sim.P99WaitNS) / 1e6 / float64(probeN[wSimDeep])
			makespan += float64(s.sim.MakespanNS) / 1e6 / float64(probeN[wSimDeep])
		}
	}
	for _, s := range stats[wSimDeep] {
		allEvents += s.events
	}
	replays := 0
	for i := 0; i < probeN[wCoexplore]; i++ {
		replays += stats[wCoexplore][i].replays
	}
	var allPricings int64
	for _, s := range stats[wExplore] {
		allPricings += s.bb.GroupPricings
	}

	hits, misses := counters["service_cache_hits_total"], counters["service_cache_misses_total"]
	return map[string]metric{
		"api.decode_us":            {p50("api.decode", 1e3), "us"},
		"api.validate_key_us":      {p50("api.validate_key", 1e3), "us"},
		"api.encode_us":            {p50("api.encode", 1e3), "us"},
		"client.decode_us":         {p50("client.decode", 1e3), "us"},
		"service.self_ms":          {quantile(self, 0.5), "ms"},
		"service.cache_hit_share":  {ratio(hits, hits+misses), "ratio"},
		"service.coalesced":        {counters["service_coalesced_total"], "count"},
		"service.shed":             {counters["service_shed_total"], "count"},
		"core.estimate_ns":         {mean("core.estimate", 1e6), "ns"},
		"core.size_bytes_ns":       {mean("core.size_bytes", 1e6), "ns"},
		"floorplan.find_window_ns": {mean("floorplan.find_window", 1e6), "ns"},
		"dse.explore_p50_ms":       {p50("dse.explore", 1), "ms"},
		"dse.explore_p90_ms":       {quantile(durs["dse.explore"], 0.9), "ms"},
		"dse.partitions":           {float64(bb.partitions), "count"},
		"dse.evaluated":            {float64(bb.evaluated), "count"},
		"dse.group_pricings":       {float64(bb.pricings), "count"},
		"dse.memo_hit_share":       {ratio(float64(bb.hits), float64(bb.pricings)), "ratio"},
		"dse.pruned_share":         {ratio(float64(bb.pruned), float64(bb.live)), "ratio"},
		"dse.ns_per_pricing":       {ratio(float64(total["dse.explore"]), float64(allPricings)), "ns"},
		"dse.expand_us":            {p50("dse.expand", 1e3), "us"},
		"sim.generate_ms":          {p50("sim.generate", 1), "ms"},
		"sim.build_ms":             {p50("sim.build", 1), "ms"},
		"sim.first_snapshot_ms":    {p50("sim.first_snapshot", 1), "ms"},
		"sim.run_p50_ms":           {p50("sim.run", 1), "ms"},
		"sim.run_p90_ms":           {quantile(durs["sim.run"], 0.9), "ms"},
		"sim.events":               {float64(events), "count"},
		"sim.ns_per_event":         {ratio(float64(total["sim.run"]), float64(allEvents)), "ns"},
		"sim.max_ready":            {float64(maxReady), "count"},
		"sim.p99_wait_sim_ms":      {p99Wait, "ms"},
		"sim.makespan_sim_ms":      {makespan, "ms"},
		"sim.coexplore_ms":         {p50("sim.coexplore", 1), "ms"},
		"sim.coexplore_bb_ms":      {p50("sim.coexplore_bb", 1), "ms"},
		"sim.build_groups_us":      {p50("sim.build_groups", 1e3), "us"},
		"sim.replay_us":            {p50("sim.replay", 1e3), "us"},
		"sim.replays":              {float64(replays), "count"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
